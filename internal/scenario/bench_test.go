package scenario

import (
	"context"
	"testing"
	"time"

	"cityhunter/internal/citygen"
	"cityhunter/internal/heatmap"
)

// benchRun measures one venue deployment end to end (city generation is
// amortised via the shared test fixture).
func benchRun(b *testing.B, venue Venue, kind AttackKind, slot int) {
	b.Helper()
	city, hm := benchCity(b)
	cfg := Config{
		City:                 city,
		HeatMap:              hm,
		Venue:                venue,
		Attack:               kind,
		DirectProberFraction: 0.15,
		ArrivalScale:         0.6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := RunContext(context.Background(), cfg, slot, 10*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCity(b *testing.B) (*citygen.City, *heatmap.Map) {
	b.Helper()
	cityOnce.Do(func() {
		c, err := citygen.Generate(citygen.DefaultConfig(7))
		if err != nil {
			return
		}
		hm, err := heatmap.FromPhotos(c.Bounds, 200, c.Photos)
		if err != nil {
			return
		}
		cityVal, heatVal = c, hm
	})
	if cityVal == nil {
		b.Fatal("city generation failed")
	}
	return cityVal, heatVal
}

func BenchmarkRunCanteenCityHunter(b *testing.B) {
	benchRun(b, CanteenVenue(), CityHunter, 4)
}

func BenchmarkRunPassageCityHunter(b *testing.B) {
	benchRun(b, PassageVenue(), CityHunter, 0)
}

func BenchmarkRunCanteenMANA(b *testing.B) {
	benchRun(b, CanteenVenue(), MANA, 4)
}
