package cityhunter_test

import (
	"runtime"
	"testing"
	"time"

	"cityhunter"
)

// TestCanteenRunAllocBytes pins the bytes one 10-minute City-Hunter
// canteen run at the lunch slot allocates (world seed 1, run seed 1, the
// benchmark's canteen workload). Frames travel by value in the medium's
// pooled delivery events, clients keep copies of the scan results they
// could join, reply batches reuse the engine's buffer, and each device
// track keeps one packed array of sent kinds, so the run allocates about
// 0.68 MB; when every probe response was its own heap frame it allocated
// 5.3 MB.
func TestCanteenRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	w, err := cityhunter.NewWorld(cityhunter.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) {
		t.Helper()
		if _, err := w.Run(cityhunter.CanteenVenue(), cityhunter.CityHunter, cityhunter.LunchSlot,
			10*time.Minute, cityhunter.WithRunSeed(seed)); err != nil {
			t.Fatal(err)
		}
	}
	run(2) // warm the world's seeding memos
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	run(1)
	runtime.ReadMemStats(&m1)
	const budget = 1.0 * (1 << 20)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > budget {
		t.Errorf("canteen run allocated %.2f MB, want ≤ %.1f MB", float64(got)/(1<<20), budget/(1<<20))
	} else {
		t.Logf("canteen run allocated %.3f MB", float64(got)/(1<<20))
	}
}
