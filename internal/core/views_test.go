package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
)

// viewsWorld drives one engine through a byte-coded sequence of database
// and reply operations, and keeps the reference its state is checked
// against: the first-sent kind of every entry id sent to every track.
type viewsWorld struct {
	e     *Engine
	names []string
	sent  map[linker.TrackID]map[int]BufferKind
	step  int
}

// viewsClients are the MACs the operations answer and attribute hits to.
var viewsClients = []ieee80211.MAC{mac(1), mac(2), mac(3), mac(4)}

func newViewsWorld(t *testing.T, flags byte) *viewsWorld {
	cfg := DefaultConfig(ModeFull)
	if flags&1 != 0 {
		cfg.Mode = ModePreliminary
	}
	cfg.RotateUntried = flags&2 == 0
	cfg.ReplyBudget, cfg.GhostSize, cfg.GhostPicks = 8, 3, 1
	cfg.InitialFreshness, cfg.MinBuffer = 2, 1
	e, err := NewEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &viewsWorld{e: e, sent: make(map[linker.TrackID]map[int]BufferKind)}
	for i := 0; i < 32; i++ {
		// Names in an order unrelated to their insertion order.
		w.names = append(w.names, fmt.Sprintf("net-%02d", (i*13)%32))
	}
	return w
}

// record notes that entry id went to mac's track from the given bucket,
// unless it went there before.
func (w *viewsWorld) record(m ieee80211.MAC, id int, kind BufferKind) {
	tid, ok := w.e.linker.Lookup(m)
	if !ok {
		panic("record before the track exists")
	}
	if w.sent[tid] == nil {
		w.sent[tid] = make(map[int]BufferKind)
	}
	if _, dup := w.sent[tid][id]; !dup {
		w.sent[tid][id] = kind
	}
}

// apply runs one operation coded by op and arg, and describes it. The
// error is a hit attributed to another bucket than the reference's.
func (w *viewsWorld) apply(op, arg byte) (string, error) {
	w.step++
	e, db := w.e, w.e.db
	now := time.Duration(w.step) * time.Second
	// An out-of-order time: 0–31 s, before or after any other.
	jumbled := time.Duration(arg>>3) * time.Second
	name := w.names[arg%32]
	c := viewsClients[arg>>5&3]
	switch op % 8 {
	case 0:
		// Weights 0–3.5 in halves, so ties are common and a re-add may
		// raise an entry's weight or leave it.
		wt := float64(arg>>5) / 2
		db.add(name, SourceWiGLE, wt)
		return fmt.Sprintf("add(%q, %v)", name, wt), nil
	case 1:
		en, ok := db.get(name)
		if !ok {
			return "bump(missing)", nil
		}
		delta := float64(int(arg>>5)-3) / 2 // −1.5 to +2, zero included
		db.bump(en, delta)
		return fmt.Sprintf("bump(%q, %v)", name, delta), nil
	case 2:
		en, ok := db.get(name)
		if !ok {
			return "recordHit(missing)", nil
		}
		db.recordHit(en, jumbled, 1)
		return fmt.Sprintf("recordHit(%q, %v)", name, jumbled), nil
	case 3:
		e.AbsorbHit(jumbled, name)
		return fmt.Sprintf("AbsorbHit(%v, %q)", jumbled, name), nil
	case 4:
		e.HarvestDirect(now, lnk(c), name)
		en, _ := db.get(name)
		w.record(c, en.id, KindMirror)
		return fmt.Sprintf("HarvestDirect(%v, %q)", c, name), nil
	case 5, 6:
		limit := int(arg % 10)
		batch := e.BroadcastReply(now, lnk(c), limit)
		if len(batch) > 0 {
			for i, en := range e.sel.entries {
				w.record(c, en.id, e.sel.kinds[i])
			}
		}
		return fmt.Sprintf("BroadcastReply(%v, %d) = %q", c, limit, batch), nil
	default:
		want := KindMirror
		if en, ok := db.get(name); ok {
			if tid, ok := e.linker.Lookup(c); ok {
				if k, ok := w.sent[tid][en.id]; ok {
					want = k
				}
			}
		}
		e.RecordHit(now, lnk(c), name)
		if h := e.hits[len(e.hits)-1]; h.Kind != want {
			return "", fmt.Errorf("RecordHit(%v, %q) attributed to %v, want %v", c, name, h.Kind, want)
		}
		return fmt.Sprintf("RecordHit(%v, %q)", c, name), nil
	}
}

// byWeightRef, byFreshRef and bySSIDRef are the three view orders, written
// apart from the database's own comparators.
func byWeightRef(a, b *entry) int {
	return cmp.Or(cmp.Compare(b.weight, a.weight), cmp.Compare(a.id, b.id))
}

func byFreshRef(a, b *entry) int {
	return cmp.Or(cmp.Compare(b.lastHit, a.lastHit), cmp.Compare(a.id, b.id))
}

func bySSIDRef(a, b *entry) int { return cmp.Compare(a.ssid, b.ssid) }

// check compares the three views with a full stable sort of the entries,
// and every track's sent kinds and count with the reference.
func (w *viewsWorld) check() error {
	e, db := w.e, w.e.db
	var all, hit []*entry
	for _, en := range db.entries {
		all = append(all, en)
		if en.hasHit {
			hit = append(hit, en)
		}
	}
	for _, v := range []struct {
		name      string
		got, want []*entry
		order     func(a, b *entry) int
	}{
		{"popularity", db.popularityRank(), all, byWeightRef},
		{"freshness", db.freshnessRank(), hit, byFreshRef},
		{"ssid", db.unorderedRank(), all, bySSIDRef},
	} {
		want := slices.Clone(v.want)
		slices.SortStableFunc(want, v.order)
		if !slices.Equal(v.got, want) {
			return fmt.Errorf("%s view %s, full sort %s", v.name, idsOf(v.got), idsOf(want))
		}
	}
	for tid, t := range e.clients {
		ref := w.sent[tid]
		if t.sent != len(ref) {
			return fmt.Errorf("track %d: sent count %d, want %d", tid, t.sent, len(ref))
		}
		for id := 0; id < db.len()+2; id++ {
			want := ref[id]
			if got := t.kindOf(id); got != want {
				return fmt.Errorf("track %d: entry %d kind %v, want %v", tid, id, got, want)
			}
			if got := t.has(id); got != (want != 0) {
				return fmt.Errorf("track %d: entry %d has = %v, want %v", tid, id, got, want != 0)
			}
		}
	}
	for tid, ref := range w.sent {
		if _, ok := e.clients[tid]; !ok && len(ref) > 0 {
			return fmt.Errorf("track %d was sent %d entries but has no bookkeeping", tid, len(ref))
		}
	}
	for _, c := range viewsClients {
		want := 0
		if tid, ok := e.linker.Lookup(c); ok {
			want = len(w.sent[tid])
		}
		if got := e.SentCount(c); got != want {
			return fmt.Errorf("SentCount(%v) = %d, want %d", c, got, want)
		}
	}
	return nil
}

func idsOf(view []*entry) string {
	ids := make([]int, len(view))
	for i, en := range view {
		ids[i] = en.id
	}
	return fmt.Sprint(ids)
}

// runViewOps decodes data as a flags byte followed by (op, arg) pairs and
// checks the engine after every operation.
func runViewOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}

	w := newViewsWorld(t, data[0])
	var trail []string
	for i := 1; i+1 < len(data); i += 2 {
		op, err := w.apply(data[i], data[i+1])
		trail = append(trail, op)
		if err == nil {
			err = w.check()
		}
		if err != nil {
			if len(trail) > 8 {
				trail = trail[len(trail)-8:]
			}
			t.Fatalf("after op %d: %v\nlast ops:\n  %s", w.step, err, strings.Join(trail, "\n  "))
		}
	}
}

// randomViewOps returns a flags byte and n random operations.
func randomViewOps(seed int64, flags byte, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, 1+2*n)
	rng.Read(data)
	data[0] = flags
	return data
}

// TestDatabaseViewsMatchFullSort runs random sequences of adds (re-adds
// with higher and lower weights included), bumps by positive, zero and
// negative deltas, hits recorded and absorbed at out-of-order times,
// harvests, replies and attributed hits, in full and preliminary mode with
// and without the untried rotation. After every operation the three views
// must equal a full stable sort of the entries, and every track's sent
// kinds and count the first-sent kinds a map keeps.
func TestDatabaseViewsMatchFullSort(t *testing.T) {
	for flags := byte(0); flags < 4; flags++ {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("flags%d/seed%d", flags, seed), func(t *testing.T) {
				runViewOps(t, randomViewOps(seed, flags, 3000))
			})
		}
	}
}

func FuzzDatabaseViews(f *testing.F) {
	for flags := byte(0); flags < 4; flags++ {
		f.Add(randomViewOps(int64(flags)+1, flags, 48))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Short sequences keep each run, and the minimizing of what
		// the fuzzer finds, quick.
		runViewOps(t, data[:min(len(data), 1+2*64)])
	})
}
