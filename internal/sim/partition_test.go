package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// partWorkload is a synthetic multi-site workload whose observable trace
// is exquisitely order-sensitive: each site carries a rolling hash mixed
// on every event, and sites mail each other hash fragments with a
// lookahead-respecting delay. Any reordering of local events or of the
// cross-partition merge changes every subsequent hash.
type partWorkload struct {
	coord  *Partitioned
	sites  []*partSite
	partOf []int
}

type partSite struct {
	hash  uint64
	trace []string
}

const workloadLookahead = 50 * time.Millisecond

func newPartWorkload(nsites, nparts int) *partWorkload {
	coord, err := NewPartitioned(nparts, workloadLookahead)
	if err != nil {
		panic(err)
	}
	w := &partWorkload{coord: coord, sites: make([]*partSite, nsites), partOf: make([]int, nsites)}
	for i := range w.sites {
		w.sites[i] = &partSite{hash: uint64(i) + 1}
		w.partOf[i] = i % nparts
	}
	for i := range w.sites {
		w.tick(i, time.Duration(i+1)*time.Millisecond, 0)
	}
	return w
}

func (w *partWorkload) mix(s *partSite, at time.Duration, v uint64) {
	s.hash = s.hash*1099511628211 + uint64(at) + v
	s.trace = append(s.trace, fmt.Sprintf("%v %x", at, s.hash))
}

// tick advances site i: mixes the clock into the hash, occasionally mails
// the current hash to the next site (stamped one lookahead plus a margin
// ahead), and re-arms itself.
func (w *partWorkload) tick(i int, at time.Duration, step int) {
	w.coord.Part(w.partOf[i]).At(at, func() {
		s := w.sites[i]
		w.mix(s, at, uint64(step))
		if step%3 == 2 {
			dst := (i + 1) % len(w.sites)
			v := s.hash
			arrive := at + workloadLookahead + 5*time.Millisecond
			w.coord.Post(w.partOf[i], i, arrive, w.partOf[dst], func() {
				w.mix(w.sites[dst], arrive, v)
			})
		}
		if step < 40 {
			w.tick(i, at+7*time.Millisecond, step+1)
		}
	})
}

func (w *partWorkload) traces() [][]string {
	out := make([][]string, len(w.sites))
	for i, s := range w.sites {
		out[i] = s.trace
	}
	return out
}

// TestPartitionedDeterminism runs the same workload at every combination
// of partition count and GOMAXPROCS and demands identical traces: the
// coordinator's merge order must not depend on how sites are grouped onto
// partitions or on how many OS threads run them.
func TestPartitionedDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [][]string
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, nparts := range []int{1, 2, 3, 4} {
			w := newPartWorkload(4, nparts)
			w.coord.RunContext(context.Background(), time.Second)
			if v := w.coord.LookaheadViolations(); v != 0 {
				t.Fatalf("GOMAXPROCS=%d parts=%d: %d lookahead violations", procs, nparts, v)
			}
			got := w.traces()
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d parts=%d: trace diverged from parts=1 reference", procs, nparts)
			}
		}
	}
	if len(want) == 0 || len(want[0]) < 40 {
		t.Fatalf("degenerate workload: %d sites, %d events at site 0", len(want), len(want[0]))
	}
}

// TestPartitionedWindowEdge pins the arrival-exactly-on-the-horizon rule:
// a message stamped exactly at a window's horizon is delivered in that
// window and executes at its exact timestamp, ordered after events the
// destination scheduled in earlier windows for the same instant and
// before events it schedules during the window.
func TestPartitionedWindowEdge(t *testing.T) {
	coord, err := NewPartitioned(2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	edge := 100 * time.Millisecond // exactly one lookahead: the first window's horizon
	// Scheduled at setup (an "earlier window") for the edge instant.
	coord.Part(1).At(edge, func() { order = append(order, "prior-local") })
	// Posted at setup from partition 0, stamped exactly on the horizon.
	coord.Post(0, 0, edge, 1, func() {
		order = append(order, "message")
		// Scheduled during the window for the same instant: runs after.
		coord.Part(1).At(edge, func() { order = append(order, "during-local") })
	})
	coord.RunContext(context.Background(), 200*time.Millisecond)
	want := []string{"prior-local", "message", "during-local"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if v := coord.LookaheadViolations(); v != 0 {
		t.Fatalf("edge arrival counted as a violation (%d)", v)
	}
}

// TestPartitionedGlobalBarrier checks that a periodic global event fires
// with every partition clock exactly at its timestamp.
func TestPartitionedGlobalBarrier(t *testing.T) {
	coord, err := NewPartitioned(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var fired []time.Duration
	coord.GlobalEvery(300*time.Millisecond, 300*time.Millisecond, func() {
		for i := 0; i < coord.Parts(); i++ {
			if got := coord.Part(i).Now(); got != coord.Now() {
				t.Fatalf("partition %d clock %v at global barrier %v", i, got, coord.Now())
			}
		}
		fired = append(fired, coord.Now())
	})
	coord.RunContext(context.Background(), time.Second)
	want := []time.Duration{300 * time.Millisecond, 600 * time.Millisecond, 900 * time.Millisecond}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("global fired at %v, want %v", fired, want)
	}
}

// TestPartitionedCancellation cancels mid-run and checks the contract:
// RunContext returns the context error only after every partition
// goroutine is joined, and Now() rests at the last completed barrier.
func TestPartitionedCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	coord, err := NewPartitioned(4, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := make([]int, 4) // per-partition: ticks run concurrently
	for i := 0; i < 4; i++ {
		part := i
		var tick func(at time.Duration)
		tick = func(at time.Duration) {
			coord.Part(part).At(at, func() {
				events[part]++
				if part == 0 && at >= 100*time.Millisecond {
					cancel()
				}
				tick(at + time.Millisecond)
			})
		}
		tick(0)
	}
	_, err = coord.RunContext(ctx, time.Hour)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancel fires inside the window ending at 100ms, so the last
	// completed barrier is at least the 90ms one — and nowhere near until.
	if now := coord.Now(); now < 90*time.Millisecond || now >= time.Second {
		t.Fatalf("Now() = %v after cancel at ~100ms", now)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d -> %d: partition workers leaked", before, n)
	}
}

// TestPartitionedLookaheadViolation checks that an under-stamped message
// is delivered (late, at the next barrier) and counted.
func TestPartitionedLookaheadViolation(t *testing.T) {
	coord, err := NewPartitioned(2, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var ranAt time.Duration
	coord.Part(0).At(10*time.Millisecond, func() {
		// Stamped inside the current window: a contract violation.
		coord.Post(0, 0, 20*time.Millisecond, 1, func() {
			ranAt = coord.Part(1).Now()
		})
	})
	coord.RunContext(context.Background(), time.Second)
	if coord.LookaheadViolations() != 1 {
		t.Fatalf("violations = %d, want 1", coord.LookaheadViolations())
	}
	if ranAt != 100*time.Millisecond {
		t.Fatalf("late message ran at %v, want clamped to the 100ms barrier", ranAt)
	}
}
