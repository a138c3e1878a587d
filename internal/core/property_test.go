package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

// TestPropertyRandomOps drives the engine with random interleavings of
// harvests, broadcast replies and hits, and checks the structural
// invariants after every step:
//
//   - a reply batch never exceeds the budget and never contains duplicates;
//   - with rotation on, a client is never sent the same SSID twice;
//   - PB + FB always equals the regular budget, both within bounds;
//   - the database only grows, and every replied SSID is in it.
func TestPropertyRandomOps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig(ModeFull)
			cfg.Seed = seed
			e, err := NewEngine(cfg, seedData(t))
			if err != nil {
				t.Fatal(err)
			}
			regular := cfg.ReplyBudget - 2*cfg.GhostPicks

			clients := make([]ieee80211.MAC, 12)
			for i := range clients {
				clients[i] = mac(byte(i + 1))
			}
			sent := make(map[ieee80211.MAC]map[string]bool)
			inDB := make(map[string]bool)
			for _, en := range e.TopEntries(e.DBSize()) {
				inDB[en.SSID] = true
			}
			lastBatch := make(map[ieee80211.MAC][]string)

			for step := 0; step < 3000; step++ {
				now := time.Duration(step) * time.Second
				c := clients[rng.Intn(len(clients))]
				switch rng.Intn(10) {
				case 0, 1, 2: // harvest
					ssid := fmt.Sprintf("harvest-%03d", rng.Intn(300))
					e.HarvestDirect(now, lnk(c), ssid)
					inDB[ssid] = true
					if sent[c] == nil {
						sent[c] = make(map[string]bool)
					}
					sent[c][ssid] = true // mirrored by the base station
				case 3: // hit from the client's last batch
					if batch := lastBatch[c]; len(batch) > 0 {
						e.RecordHit(now, lnk(c), batch[rng.Intn(len(batch))])
					}
				default: // broadcast reply
					batch := e.BroadcastReply(now, lnk(c), cfg.ReplyBudget)
					if len(batch) > cfg.ReplyBudget {
						t.Fatalf("step %d: batch %d > budget", step, len(batch))
					}
					seen := make(map[string]bool, len(batch))
					if sent[c] == nil {
						sent[c] = make(map[string]bool)
					}
					for _, ssid := range batch {
						if seen[ssid] {
							t.Fatalf("step %d: duplicate %q in batch", step, ssid)
						}
						seen[ssid] = true
						if sent[c][ssid] {
							t.Fatalf("step %d: %q resent to %v", step, ssid, c)
						}
						sent[c][ssid] = true
						if !inDB[ssid] {
							t.Fatalf("step %d: replied %q not in database", step, ssid)
						}
					}
					lastBatch[c] = slices.Clone(batch) // batch is reused by the next reply
				}

				pb, fb := e.BufferSizes()
				if pb+fb != regular {
					t.Fatalf("step %d: PB+FB = %d+%d != %d", step, pb, fb, regular)
				}
				if fb < cfg.MinBuffer || pb < cfg.MinBuffer {
					t.Fatalf("step %d: buffer below floor: pb=%d fb=%d", step, pb, fb)
				}
				if e.DBSize() < e.SeededSize() {
					t.Fatalf("step %d: database shrank", step)
				}
			}
		})
	}
}

// TestPropertyRotationCoversEverything: any client that keeps asking
// eventually receives every database entry exactly once, in both modes.
func TestPropertyRotationCoversEverything(t *testing.T) {
	for _, mode := range []Mode{ModePreliminary, ModeFull} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := DefaultConfig(mode)
			cfg.TopCityWide = 100
			cfg.NearbyCount = 20
			e, err := NewEngine(cfg, seedData(t))
			if err != nil {
				t.Fatal(err)
			}
			victim := mac(1)
			got := make(map[string]bool)
			for round := 0; round < 100; round++ {
				batch := e.BroadcastReply(time.Duration(round)*time.Second, lnk(victim), 40)
				if len(batch) == 0 {
					break
				}
				for _, s := range batch {
					if got[s] {
						t.Fatalf("round %d: %q repeated", round, s)
					}
					got[s] = true
				}
			}
			if len(got) != e.DBSize() {
				t.Errorf("covered %d of %d entries", len(got), e.DBSize())
			}
		})
	}
}

// TestPropertyDeterministicReplay: identical op sequences on two engines
// with the same seed produce identical batches.
func TestPropertyDeterministicReplay(t *testing.T) {
	build := func() *Engine {
		cfg := DefaultConfig(ModeFull)
		cfg.Seed = 99
		e, err := NewEngine(cfg, seedData(t))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	drive := func(e *Engine, rng *rand.Rand) []string {
		var out []string
		for step := 0; step < 500; step++ {
			now := time.Duration(step) * time.Second
			c := mac(byte(rng.Intn(8) + 1))
			switch rng.Intn(4) {
			case 0:
				e.HarvestDirect(now, lnk(c), fmt.Sprintf("h-%d", rng.Intn(100)))
			case 1:
				batch := e.BroadcastReply(now, lnk(c), 40)
				if len(batch) > 0 {
					e.RecordHit(now, lnk(c), batch[0])
				}
				out = append(out, batch...)
			default:
				out = append(out, e.BroadcastReply(now, lnk(c), 40)...)
			}
		}
		return out
	}
	ga, gb := drive(a, rngA), drive(b, rngB)
	if len(ga) != len(gb) {
		t.Fatalf("lengths differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("batch item %d differs: %q vs %q", i, ga[i], gb[i])
		}
	}
}
