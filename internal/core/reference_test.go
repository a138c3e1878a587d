package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
)

// refEngine is the string-keyed reply path the engine ran before database
// entries had ids: a map[string]BufferKind sent set per track and a chosen
// map per reply. It drives its own Engine's database, RNG, linker and
// buffer sizes, so run beside a second engine built from the same config
// it must produce the same batches; the only engine code it shares is the
// database and the buffer adaptation. Its full-mode backfill walks the
// whole popularity rank from the head.
type refEngine struct {
	e    *Engine
	sent map[linker.TrackID]map[string]BufferKind
	// kinds is the bucket of every recorded hit, in order.
	kinds []BufferKind
	// resume is, after a full-mode reply whose popularity walk finished
	// without filling the batch, the position of the first rank entry
	// still eligible when the walk was done (the rank's length if none
	// was); -1 after any other reply.
	resume int
	// walks counts the replies that set resume, ranOut those where it
	// was the rank's length, pbZero those with an empty Popularity
	// Buffer share, and backfills the full-mode backfills that took an
	// entry.
	walks, ranOut, pbZero, backfills int
}

func (r *refEngine) track(o linker.Observation) map[string]BufferKind {
	id := r.e.linker.Observe(o)
	t, ok := r.sent[id]
	if !ok {
		t = make(map[string]BufferKind)
		r.sent[id] = t
	}
	return t
}

func (r *refEngine) sentCount(m ieee80211.MAC) int {
	id, ok := r.e.linker.Lookup(m)
	if !ok {
		return 0
	}
	return len(r.sent[id])
}

func (r *refEngine) harvest(o linker.Observation, ssid string) {
	if ssid == "" {
		return
	}
	if en, fresh := r.e.db.add(ssid, SourceDirectProbe, r.e.cfg.HarvestWeight); !fresh {
		r.e.db.bump(en, r.e.cfg.SightingWeightDelta)
	}
	o.Directed, o.SSID = true, ssid
	t := r.track(o)
	if _, dup := t[ssid]; !dup {
		t[ssid] = KindMirror
	}
}

func (r *refEngine) reply(o linker.Observation, limit int) []string {
	e := r.e
	budget := min(e.cfg.ReplyBudget, limit)
	if budget <= 0 {
		return nil
	}
	t := r.track(o)
	tried := func(ssid string) bool {
		if !e.cfg.RotateUntried {
			return false
		}
		_, ok := t[ssid]
		return ok
	}
	r.resume = -1
	var batch []string
	chosen := make(map[string]BufferKind)
	take := func(en *entry, kind BufferKind) bool {
		if _, dup := chosen[en.ssid]; dup || tried(en.ssid) {
			return false
		}
		chosen[en.ssid] = kind
		batch = append(batch, en.ssid)
		return len(batch) >= budget
	}
	if e.cfg.Mode == ModeFull {
		r.selectFull(budget, tried, chosen, take)
	}
	if n := len(batch); n < budget {
		backfill := e.db.popularityRank()
		if e.cfg.Mode == ModePreliminary {
			backfill = e.db.unorderedRank()
		}
		for _, en := range backfill {
			if take(en, KindPopularity) {
				break
			}
		}
		if e.cfg.Mode == ModeFull && len(batch) > n {
			r.backfills++
		}
	}
	for _, ssid := range batch {
		if _, dup := t[ssid]; !dup {
			t[ssid] = chosen[ssid]
		}
	}
	return batch
}

func (r *refEngine) selectFull(budget int, tried func(string) bool, chosen map[string]BufferKind, take func(*entry, BufferKind) bool) {
	e := r.e
	regular := max(budget-2*e.cfg.GhostPicks, 0)
	fb := min(e.fbSize, regular)
	pb := regular - fb
	eligible := func(en *entry) bool {
		if _, dup := chosen[en.ssid]; dup {
			return false
		}
		return !tried(en.ssid)
	}
	var ghostPop []*entry
	taken := 0
	rank := e.db.popularityRank()
	for _, en := range rank {
		if !eligible(en) {
			continue
		}
		if taken < pb {
			if take(en, KindPopularity) {
				return
			}
			taken++
			continue
		}
		if len(ghostPop) < e.cfg.GhostSize {
			ghostPop = append(ghostPop, en)
			continue
		}
		break
	}
	r.resume = len(rank)
	for i, en := range rank {
		if eligible(en) {
			r.resume = i
			break
		}
	}
	r.walks++
	if r.resume == len(rank) {
		r.ranOut++
	}
	if pb == 0 {
		r.pbZero++
	}
	var ghostFresh []*entry
	taken = 0
	for _, en := range e.db.freshnessRank() {
		if !eligible(en) {
			continue
		}
		if taken < fb {
			if take(en, KindFreshness) {
				return
			}
			taken++
			continue
		}
		if len(ghostFresh) < e.cfg.GhostSize {
			ghostFresh = append(ghostFresh, en)
			continue
		}
		break
	}
	r.pickGhosts(ghostPop, KindPopularityGhost, take)
	r.pickGhosts(ghostFresh, KindFreshnessGhost, take)
}

func (r *refEngine) pickGhosts(candidates []*entry, kind BufferKind, take func(*entry, BufferKind) bool) {
	picks := min(r.e.cfg.GhostPicks, len(candidates))
	for i := 0; i < picks; i++ {
		j := i + r.e.rng.Intn(len(candidates)-i)
		candidates[i], candidates[j] = candidates[j], candidates[i]
		if take(candidates[i], kind) {
			return
		}
	}
}

func (r *refEngine) hit(now time.Duration, o linker.Observation, ssid string) {
	e := r.e
	if en, ok := e.db.get(ssid); ok {
		e.db.recordHit(en, now, e.cfg.HitWeightDelta)
	}
	id, linked := e.linker.Lookup(o.MAC)
	if !linked {
		id = e.linker.Observe(o)
	}
	kind := KindMirror
	if t, ok := r.sent[id]; ok {
		if k, ok := t[ssid]; ok {
			kind = k
		}
	}
	r.kinds = append(r.kinds, kind)
	e.adapt(now, o.MAC, kind)
}

// TestReplyMatchesStringKeyedReference runs the engine beside refEngine
// over random interleavings of harvests, replies (full and truncated),
// hits on just-sent, long-sent and never-sent SSIDs, and absorbed remote
// hits, and requires identical batches, sent counts, hit kinds and buffer
// sizes after every step, and the backfill's resume point the reference
// finds. One variant starts the chosen-stamp generation just short of
// wrapping. The others vary where the popularity walk stops: with no
// ghost list it stops at the first eligible entry past the Popularity
// Buffer; with no ghost picks every ghost candidate is left to the
// backfill; with the whole regular budget in the Freshness Buffer the
// walk takes nothing; and over a database smaller than one batch it runs
// out of entries.
func TestReplyMatchesStringKeyedReference(t *testing.T) {
	type variant struct {
		name   string
		mode   Mode
		rotate bool
		wrap   bool
		// cfg adjusts DefaultConfig; harvests and remotes, when
		// positive, bound how many distinct SSIDs the test harvests and
		// absorbs (400 and 50 otherwise).
		cfg               func(*Config)
		harvests, remotes int
		// ranOut and pbZero require some popularity walk to run out, or
		// to run with an empty Popularity Buffer share.
		ranOut, pbZero bool
	}
	smallDB := func(c *Config) { c.TopCityWide, c.NearbyCount = 6, 4 }
	variants := []variant{
		{name: "full", mode: ModeFull, rotate: true},
		{name: "preliminary", mode: ModePreliminary, rotate: true},
		{name: "full-no-rotation", mode: ModeFull},
		{name: "preliminary-no-rotation", mode: ModePreliminary},
		{name: "full-gen-wrap", mode: ModeFull, rotate: true, wrap: true},
		{name: "full-ghost-size-0", mode: ModeFull, rotate: true, cfg: func(c *Config) { c.GhostSize = 0 }},
		{name: "full-ghost-picks-0", mode: ModeFull, rotate: true, cfg: func(c *Config) { c.GhostPicks = 0 }},
		{name: "full-pb-0", mode: ModeFull, rotate: true, pbZero: true, cfg: func(c *Config) {
			c.MinBuffer = 0
			c.InitialFreshness = c.ReplyBudget - 2*c.GhostPicks
		}},
		{name: "full-small-db", mode: ModeFull, rotate: true, cfg: smallDB, harvests: 12, remotes: 6, ranOut: true},
		{name: "full-small-db-no-rotation", mode: ModeFull, cfg: smallDB, harvests: 12, remotes: 6, ranOut: true},
	}
	for _, v := range variants {
		harvests, remotes := 400, 50
		if v.harvests > 0 {
			harvests, remotes = v.harvests, v.remotes
		}
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				build := func() *Engine {
					cfg := DefaultConfig(v.mode)
					cfg.Seed = seed
					cfg.RotateUntried = v.rotate
					if v.cfg != nil {
						v.cfg(&cfg)
					}
					e, err := NewEngine(cfg, seedData(t))
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				e := build()
				ref := &refEngine{e: build(), sent: make(map[linker.TrackID]map[string]BufferKind)}
				if v.wrap {
					e.sel.gen = math.MaxUint32 - 3
				}
				rng := rand.New(rand.NewSource(seed))
				clients := make([]ieee80211.MAC, 10)
				for i := range clients {
					clients[i] = mac(byte(i + 1))
				}
				last := make(map[ieee80211.MAC][]string)
				for step := 0; step < 2500; step++ {
					now := time.Duration(step) * time.Second
					c := clients[rng.Intn(len(clients))]
					o := lnk(c)
					switch op := rng.Intn(12); {
					case op < 3:
						ssid := fmt.Sprintf("harvest-%03d", rng.Intn(harvests))
						e.HarvestDirect(now, o, ssid)
						ref.harvest(o, ssid)
					case op < 5:
						// A hit on the last batch, or on any SSID the
						// database may or may not hold.
						ssid := fmt.Sprintf("harvest-%03d", rng.Intn(harvests))
						if b := last[c]; len(b) > 0 && op == 3 {
							ssid = b[rng.Intn(len(b))]
						}
						e.RecordHit(now, o, ssid)
						ref.hit(now, o, ssid)
					case op == 5:
						ssid := fmt.Sprintf("remote-%02d", rng.Intn(remotes))
						e.AbsorbHit(now, ssid)
						ref.e.AbsorbHit(now, ssid)
					default:
						limit := e.cfg.ReplyBudget
						if op == 6 {
							limit = rng.Intn(limit + 1)
						}
						got := e.BroadcastReply(now, o, limit)
						want := ref.reply(o, limit)
						if !slices.Equal(got, want) {
							t.Fatalf("step %d: batch for %v\n got %q\nwant %q", step, c, got, want)
						}
						last[c] = slices.Clone(got) // got is reused by the next reply
						if ref.resume >= 0 && e.sel.resume != ref.resume {
							t.Fatalf("step %d: backfill for %v resumes at rank position %d, want %d", step, c, e.sel.resume, ref.resume)
						}
					}
					if got, want := e.SentCount(c), ref.sentCount(c); got != want {
						t.Fatalf("step %d: SentCount(%v) = %d, want %d", step, c, got, want)
					}
					gp, gf := e.BufferSizes()
					wp, wf := ref.e.BufferSizes()
					if gp != wp || gf != wf {
						t.Fatalf("step %d: buffers pb=%d fb=%d, want pb=%d fb=%d", step, gp, gf, wp, wf)
					}
				}
				hits := e.Hits()
				if len(hits) != len(ref.kinds) {
					t.Fatalf("%d hits recorded, reference %d", len(hits), len(ref.kinds))
				}
				for i, h := range hits {
					if h.Kind != ref.kinds[i] {
						t.Fatalf("hit %d (%q): kind %v, want %v", i, h.SSID, h.Kind, ref.kinds[i])
					}
				}
				if v.wrap && e.sel.gen > math.MaxUint32-4 {
					t.Fatalf("chosen-stamp generation %d never wrapped", e.sel.gen)
				}
				if v.mode == ModeFull && (ref.walks == 0 || ref.backfills == 0 ||
					v.ranOut && ref.ranOut == 0 || v.pbZero && ref.pbZero == 0) {
					t.Fatalf("%d popularity walks finished, %d ran out, %d with pb 0, %d backfills took entries: the variant misses what it tests",
						ref.walks, ref.ranOut, ref.pbZero, ref.backfills)
				}
			})
		}
	}
}
