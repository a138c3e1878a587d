package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

// rotatingClientMAC is client c of the rotating-client measurements: every
// c is a distinct MAC, so an exhausted client is never answered again.
func rotatingClientMAC(c int) ieee80211.MAC {
	return ieee80211.MAC{0x02, 1, 1, byte(c >> 16), byte(c >> 8), byte(c)}
}

// TestBroadcastReplyFreshClientAllocs pins the cost of answering a client
// the engine has never seen from a 2000-SSID database: a new track and its
// sent-kind array. The returned batch reuses the engine's buffer. That is
// 2 allocations, or 3 under the race detector, whose instrumentation keeps
// the temporary of the append-to-grow call.
func TestBroadcastReplyFreshClientAllocs(t *testing.T) {
	e := benchEngine(t, 2000)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		mac := ieee80211.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		if got := e.BroadcastReply(0, lnk(mac), 40); len(got) != 40 {
			t.Fatalf("batch = %d, want 40", len(got))
		}
	})
	want := 2.0
	if raceEnabled {
		want = 3
	}
	if avg > want {
		t.Errorf("BroadcastReply for a fresh client allocates %.0f/op, want ≤ %.0f", avg, want)
	}
}

// TestBroadcastReplyRotatingClientAllocs pins the untried rotation: a
// client is answered until it has been sent all 2000 SSIDs (50 batches),
// then a never-seen client takes over, so every window of operations
// holds the same mix of first and follow-up replies. A follow-up reply
// allocates nothing, and a first one too little to show in the average;
// under the race detector the average is 1.
func TestBroadcastReplyRotatingClientAllocs(t *testing.T) {
	e := benchEngine(t, 2000)
	client, i := 0, 0
	avg := testing.AllocsPerRun(2000, func() {
		mac := rotatingClientMAC(client)
		i++
		e.BroadcastReply(time.Duration(i), lnk(mac), 40)
		if e.SentCount(mac) >= 2000 {
			client++
		}
	})
	want := 0.0
	if raceEnabled {
		want = 1
	}
	if avg > want {
		t.Errorf("BroadcastReply for a rotating client allocates %.0f/op, want ≤ %.0f", avg, want)
	}
}

// TestKnownSSIDUpdatesAllocNothing pins the database's in-place upkeep: a
// re-sighted SSID and a hit on a sent one each move one entry within the
// ranks it holds, which allocates nothing (the hit log's amortised growth
// does not show in the average).
func TestKnownSSIDUpdatesAllocNothing(t *testing.T) {
	e := benchEngine(t, 2000)
	names := make([]string, 2000)
	for j := range names {
		names[j] = fmt.Sprintf("Net-%05d", j)
	}
	src := ieee80211.MAC{0x02, 9, 9, 9, 9, 9}
	victim := ieee80211.MAC{0x02, 1, 1, 1, 1, 1}
	batch := slices.Clone(e.BroadcastReply(0, lnk(victim), 40))
	i := 0
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"HarvestDirect", func() { e.HarvestDirect(time.Duration(i), lnk(src), names[i%len(names)]) }},
		{"RecordHit", func() { e.RecordHit(time.Duration(i), lnk(victim), batch[i%len(batch)]) }},
	} {
		if avg := testing.AllocsPerRun(1000, func() { i++; c.op() }); avg > 0 {
			t.Errorf("%s on a known SSID allocates %.0f/op, want 0", c.name, avg)
		}
	}
}

// TestNewEngineWarmSeedAllocs pins the cost of seeding an engine once its
// DB has memoised the heat ranking and the nearby-SSID walk: building the
// database from the shared answers, with no ranking or walk of its own
// (about 300 allocations when both run per engine).
func TestNewEngineWarmSeedAllocs(t *testing.T) {
	sd := seedData(t)
	cfg := DefaultConfig(ModeFull)
	cfg.TopCityWide = 100
	cfg.NearbyCount = 20
	if _, err := NewEngine(cfg, sd); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := NewEngine(cfg, sd); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 150 {
		t.Errorf("NewEngine on a warm seed memo allocates %.0f/op, want ≤ 150", avg)
	}
}
