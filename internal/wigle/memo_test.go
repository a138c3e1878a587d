package wigle_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"cityhunter/internal/citygen"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/scenario"
	"cityhunter/internal/wigle"
)

// freshRanking is the unmemoised heat ranking RankByHeat must reproduce.
func freshRanking(db *wigle.DB, hm *heatmap.Map) []heatmap.SSIDHeat {
	return hm.RankByHeat(db.OpenPositionsBySSID())
}

func TestRankByHeatMemo(t *testing.T) {
	city, err := citygen.Generate(citygen.DefaultConfig(1))
	if err != nil {
		t.Fatalf("citygen: %v", err)
	}
	hm, err := heatmap.FromPhotos(city.Bounds, 200, city.Photos)
	if err != nil {
		t.Fatal(err)
	}
	db := city.DB

	first := db.RankByHeat(hm)
	if want := freshRanking(db, hm); !reflect.DeepEqual(first, want) {
		t.Fatalf("memoised ranking differs from a fresh one: top %v, want %v", first[:3], want[:3])
	}
	if again := db.RankByHeat(hm); &again[0] != &first[0] {
		t.Error("second RankByHeat on an unchanged heat map ranked again")
	}
	if cap(first) != len(first) {
		t.Errorf("shared ranking has cap %d past its length %d", cap(first), len(first))
	}

	// A second heat map gets its own entry and leaves the first alone.
	other, err := heatmap.FromPhotos(city.Bounds, 400, city.Photos[:len(city.Photos)/3])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := db.RankByHeat(other), freshRanking(db, other); !reflect.DeepEqual(got, want) {
		t.Error("second heat map's memoised ranking differs from a fresh one")
	}
	if again := db.RankByHeat(hm); &again[0] != &first[0] {
		t.Error("ranking a second heat map evicted the first")
	}

	// Crowding the last-ranked SSID's APs moves it up: a photo added after
	// the first ranking must re-rank, and leave the old answer as it was.
	before := slices.Clone(first)
	last := first[len(first)-1].SSID
	for _, p := range db.OpenPositionsBySSID()[last] {
		for range first[0].Heat + 1 {
			hm.AddPhoto(p)
		}
	}
	reranked := db.RankByHeat(hm)
	if want := freshRanking(db, hm); !reflect.DeepEqual(reranked, want) {
		t.Fatal("ranking after AddPhoto differs from a fresh one")
	}
	if reranked[len(reranked)-1].SSID == last {
		t.Errorf("crowding %q left it ranked last", last)
	}
	if !reflect.DeepEqual(first, before) {
		t.Error("re-ranking rewrote a ranking handed out earlier")
	}
}

func TestNearestSSIDsMemo(t *testing.T) {
	for name, db := range calibratedDBs(t) {
		t.Run(name, func(t *testing.T) {
			distinct := len(db.CountBySSID(false))
			for _, v := range scenario.AllVenues() {
				for _, n := range []int{0, 1, 100, distinct + 1} {
					want := db.NearestSSIDsWithin(v.Position, n, math.Inf(1))
					for range 2 {
						got := db.NearestSSIDs(v.Position, n)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, n=%d: got %d SSIDs, want %d", v.Name, n, len(got), len(want))
						}
						if cap(got) != len(got) {
							t.Fatalf("%s, n=%d: shared answer has cap %d past its length %d", v.Name, n, cap(got), len(got))
						}
					}
				}
			}
		})
	}
}
