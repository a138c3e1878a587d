package wigle_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cityhunter/internal/citygen"
	"cityhunter/internal/geo"
	"cityhunter/internal/scenario"
	"cityhunter/internal/wigle"
)

// calibratedDBs returns the default city's database and its crowd-sourced
// sample, the two databases worlds seed attackers from.
func calibratedDBs(tb testing.TB) map[string]*wigle.DB {
	tb.Helper()
	city, err := citygen.Generate(citygen.DefaultConfig(1))
	if err != nil {
		tb.Fatalf("citygen: %v", err)
	}
	sampled, err := city.DB.SampleCrowdsourced(rand.New(rand.NewSource(1000)), 0.35, 0.05)
	if err != nil {
		tb.Fatalf("SampleCrowdsourced: %v", err)
	}
	return map[string]*wigle.DB{"full": city.DB, "sampled": sampled}
}

// openByDistance returns the indices of db's open records in ascending
// (squared distance, record index) order from p, with each record's
// squared distance.
func openByDistance(db *wigle.DB, p geo.Point) (ids []int, d2 []float64) {
	d2 = make([]float64, db.Len())
	for i := range d2 {
		d2[i] = db.At(i).Pos.Dist2(p)
		if db.At(i).Open {
			ids = append(ids, i)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		if da, db := d2[ids[a]], d2[ids[b]]; da != db {
			return da < db
		}
		return ids[a] < ids[b]
	})
	return ids, d2
}

// bruteNearestSSIDs is the reference for NearestSSIDsWithin: the first n
// distinct SSIDs of the open records in (squared distance, index) order,
// cut at radius and at the search's last ring (the first doubling of
// width/32 past width plus height).
func bruteNearestSSIDs(db *wigle.DB, ids []int, d2 []float64, n int, radius float64) []string {
	b := db.Bounds()
	lastRing := b.Width() / 32
	for lastRing <= b.Width()+b.Height() {
		lastRing *= 2
	}
	seen := make(map[string]bool)
	var out []string
	for _, id := range ids {
		if len(out) == n || d2[id] > radius*radius || d2[id] > lastRing*lastRing {
			break
		}
		if ssid := db.At(id).SSID; !seen[ssid] {
			seen[ssid] = true
			out = append(out, ssid)
		}
	}
	return out
}

func TestNearestSSIDsMatchesBruteForce(t *testing.T) {
	for name, db := range calibratedDBs(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for q := 0; q < 400; q++ {
				p := geo.Pt(rng.Float64()*9000-500, rng.Float64()*9000-500)
				ids, d2 := openByDistance(db, p)
				for _, n := range []int{1, 25, 100, 400, 5000} {
					want := bruteNearestSSIDs(db, ids, d2, n, math.Inf(1))
					if got := db.NearestSSIDs(p, n); !reflect.DeepEqual(got, want) {
						t.Fatalf("NearestSSIDs(%v, %d): got %d SSIDs, want %d\ngot  %q\nwant %q",
							p, n, len(got), len(want), got, want)
					}
				}
				// The radius-capped form, at the local-pool cap and at
				// radii inside and beyond the first ring.
				for _, radius := range []float64{0, 120, 900, 20000} {
					want := bruteNearestSSIDs(db, ids, d2, 25, radius)
					if got := db.NearestSSIDsWithin(p, 25, radius); !reflect.DeepEqual(got, want) {
						t.Fatalf("NearestSSIDsWithin(%v, 25, %v):\ngot  %q\nwant %q", p, radius, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkNearestSSIDs times the attacker's nearby-SSID seeding at the
// four venues on the sampled database, the one worlds seed engines from.
func BenchmarkNearestSSIDs(b *testing.B) {
	db := calibratedDBs(b)["sampled"]
	venues := scenario.AllVenues()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.NearestSSIDs(venues[i%len(venues)].Position, 100)
	}
}
