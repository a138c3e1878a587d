package sim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	if n, _ := e.RunContext(context.Background(), 10*time.Second); n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunContext(context.Background(), time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestEngineClockDuringEvent(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.RunContext(context.Background(), time.Minute)
	if at != 5*time.Second {
		t.Errorf("Now during event = %v, want 5s", at)
	}
	if e.Now() != time.Minute {
		t.Errorf("Now after RunContext = %v, want 1m", e.Now())
	}
}

func TestEngineRunStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(2*time.Second, func() { ran = true })
	if n, _ := e.RunContext(context.Background(), time.Second); n != 0 {
		t.Fatalf("executed %d, want 0", n)
	}
	if ran {
		t.Error("event beyond horizon executed")
	}
	if pending(e) != 1 {
		t.Errorf("queued = %d, want 1", pending(e))
	}
	// The event survives for a later RunContext.
	e.RunContext(context.Background(), 3*time.Second)
	if !ran {
		t.Error("event did not execute on the second RunContext")
	}
}

func TestEngineEventSchedulesEvent(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, e.Now())
		if len(times) < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunContext(context.Background(), time.Minute)
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, at := range times {
		if want := time.Duration(i) * time.Second; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.Schedule(-5*time.Second, func() {
			if e.Now() != time.Second {
				t.Errorf("clamped event at %v, want 1s", e.Now())
			}
		})
	})
	e.RunContext(context.Background(), time.Minute)
}

func TestEngineAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.RunContext(context.Background(), 10*time.Second)
	fired := false
	e.At(time.Second, func() { fired = true })
	e.RunContext(context.Background(), 10*time.Second) // horizon equals now: event clamped to now runs
	if !fired {
		t.Error("past event did not run at current time")
	}
}

// TestQuickEngineOrdering property-checks that any batch of random delays
// executes in sorted order.
func TestQuickEngineOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine()
		var got []time.Duration
		for _, d := range delays {
			d := time.Duration(d%1e6) * time.Microsecond
			e.Schedule(d, func() { got = append(got, e.Now()) })
		}
		e.RunContext(context.Background(), time.Hour)
		if len(got) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEngineManyEventsStress(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() { count++ })
	}
	if got, _ := e.RunContext(context.Background(), time.Second); got != n {
		t.Fatalf("executed %d, want %d", got, n)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestEngineRunContextPreCancelled(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(time.Second, func() { fired = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := e.RunContext(ctx, 10*time.Second)
	if n != 0 || err == nil {
		t.Fatalf("RunContext on cancelled ctx = (%d, %v), want (0, ctx error)", n, err)
	}
	if fired {
		t.Error("event fired despite cancelled context")
	}
	if pending(e) != 1 {
		t.Errorf("pending = %d, want 1 (queue untouched)", pending(e))
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v on cancelled run", e.Now())
	}
}

// TestEngineRunContextCancelMidRun cancels from inside event #10 and checks
// the documented poll granularity: the loop notices at the next 256-event
// boundary and leaves the clock at the last executed event, not the horizon.
func TestEngineRunContextCancelMidRun(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 1000; i++ {
		i := i
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			if i == 9 {
				cancel()
			}
		})
	}
	n, err := e.RunContext(ctx, time.Hour)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if n != 256 {
		t.Errorf("executed %d events, want exactly 256 (poll boundary)", n)
	}
	if want := 256 * time.Millisecond; e.Now() != want {
		t.Errorf("clock = %v, want %v (last executed event, not the horizon)", e.Now(), want)
	}
}

// pending returns the number of queued events.
func pending(e *Engine) int { return len(e.near) + len(e.far) }

// eventQueue is the surface runQueueOps exercises, on Engine and on the
// reference alike.
type eventQueue interface {
	Now() time.Duration
	At(time.Duration, func())
	Schedule(time.Duration, func())
	RunContext(context.Context, time.Duration) (int, error)
}

// refQueue is the event queue's definition: one unordered slice whose
// earliest (at, seq) event a linear scan picks for every step, with the
// clamping, horizon and cancellation-polling rules Engine documents.
type refQueue struct {
	now time.Duration
	seq uint64
	evs []event
}

func (q *refQueue) Now() time.Duration { return q.now }

func (q *refQueue) Schedule(d time.Duration, fn func()) { q.At(q.now+max(d, 0), fn) }

func (q *refQueue) At(t time.Duration, fn func()) {
	q.seq++
	q.evs = append(q.evs, event{at: max(t, q.now), seq: q.seq, fn: fn})
}

func (q *refQueue) RunContext(ctx context.Context, until time.Duration) (int, error) {
	executed := 0
	err := ctx.Err()
	for err == nil && len(q.evs) > 0 {
		m := 0
		for i := range q.evs {
			if q.evs[i].before(&q.evs[m]) {
				m = i
			}
		}
		ev := q.evs[m]
		if ev.at > until {
			break
		}
		q.evs = slices.Delete(q.evs, m, m+1)
		q.now = ev.at
		ev.fn()
		executed++
		if executed&ctxPollMask == 0 {
			err = ctx.Err()
		}
	}
	if err == nil && q.now < until {
		q.now = until
	}
	return executed, err
}

// fired is one executed event: when it ran, the sequence number its queue
// gave it, and runQueueOps' id for it.
type fired struct {
	at  time.Duration
	seq uint64
	id  int
}

// queueWorld is one queue, real or reference, under runQueueOps.
type queueWorld struct {
	q      eventQueue
	e      *Engine // nil for the reference
	ops    []byte  // read cyclically by events deciding what to schedule
	cur    int
	n      int // events scheduled so far; the next one's id
	log    []fired
	cancel context.CancelFunc
	t      *testing.T
}

// maxQueueEvents caps how many events one runQueueOps call schedules.
const maxQueueEvents = 3000

// queueDelay maps two bytes onto a delay: zero, 0–3 ns, microseconds,
// up to 17 ms (a scan burst), milliseconds, seconds, minutes, or an exact
// multiple of nearWindow, so schedules land on equal timestamps, inside and
// across window boundaries and far beyond them.
func queueDelay(a, b byte) time.Duration {
	n := time.Duration(b)
	switch a % 8 {
	case 0:
		return 0
	case 1:
		return n % 4
	case 2:
		return n * time.Microsecond
	case 3:
		return n * 67 * time.Microsecond // ≤ 17 ms: a frame burst
	case 4:
		return n * time.Millisecond
	case 5:
		return n * time.Second
	case 6:
		return n * time.Minute
	}
	return n * nearWindow
}

// queueWidths are the near-window widths runQueueOps forces: 1 ns, a
// microsecond, the default, an hour, wider than any run, and one whose
// split overflows.
var queueWidths = []time.Duration{1, time.Microsecond, nearWindow, time.Hour, 1000 * time.Hour, math.MaxInt64}

func (w *queueWorld) next() byte {
	b := w.ops[w.cur%len(w.ops)]
	w.cur++
	return b
}

// schedule queues one event through At (abs) or Schedule. When it runs,
// the event logs itself, checks the engine's tiers, may cancel the
// running context, and schedules up to two more events.
func (w *queueWorld) schedule(abs bool, t time.Duration) {
	if w.n >= maxQueueEvents {
		return
	}
	id := w.n
	w.n++
	var seq uint64
	fn := func() {
		w.log = append(w.log, fired{w.q.Now(), seq, id})
		w.checkTiers()
		c := w.next()
		if c%16 == 15 && w.cancel != nil {
			w.cancel()
		}
		for k := 0; k < int(c%3); k++ {
			w.schedule(false, queueDelay(w.next(), w.next()))
		}
	}
	if abs {
		w.q.At(t, fn)
	} else {
		w.q.Schedule(t, fn)
	}
	if w.e != nil {
		seq = w.e.seq
	} else {
		seq = w.q.(*refQueue).seq
	}
}

// checkTiers checks the engine's tier invariant: every near event lies
// before split and every far event at or after it (a split saturated at
// the end of time admits near events there).
func (w *queueWorld) checkTiers() {
	e := w.e
	if e == nil {
		return
	}
	w.t.Helper()
	for _, ev := range e.near {
		if ev.at >= e.split && e.split != math.MaxInt64 {
			w.t.Fatalf("near event at %v, split %v", ev.at, e.split)
		}
	}
	for _, ev := range e.far {
		if ev.at < e.split {
			w.t.Fatalf("far event at %v, split %v", ev.at, e.split)
		}
	}
}

// runQueueOps decodes ops four bytes at a time and applies each to an
// Engine and to the reference queue, comparing every RunContext result,
// clock and queue length as it goes and the executed sequence at the end.
// It returns the number of runs a cancellation cut short.
func runQueueOps(t *testing.T, ops []byte) (cancelled int) {
	t.Helper()
	if len(ops) == 0 {
		return 0
	}
	e := NewEngine()
	worlds := [2]*queueWorld{{q: e, e: e, ops: ops, t: t}, {q: &refQueue{}, ops: ops, t: t}}
	each := func(fn func(w *queueWorld)) {
		for _, w := range worlds {
			fn(w)
		}
	}
	run := func(until time.Duration, canCancel bool) {
		var n [2]int
		var err [2]error
		for i, w := range worlds {
			ctx, cancel := context.WithCancel(context.Background())
			if canCancel {
				w.cancel = cancel
			}
			n[i], err[i] = w.q.RunContext(ctx, until)
			w.cancel = nil
			cancel()
		}
		if n[0] != n[1] || (err[0] == nil) != (err[1] == nil) {
			t.Fatalf("RunContext(%v): engine (%d, %v), reference (%d, %v)", until, n[0], err[0], n[1], err[1])
		}
		if err[0] != nil {
			cancelled++
		}
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		op, a, b, c := ops[0]%8, ops[1], ops[2], ops[3]
		switch op {
		case 0:
			each(func(w *queueWorld) { w.schedule(false, queueDelay(a, b)) })
		case 1:
			// Negative delays and past times clamp to now.
			each(func(w *queueWorld) { w.schedule(false, -queueDelay(a, b)) })
		case 2:
			each(func(w *queueWorld) { w.schedule(true, w.q.Now()+queueDelay(a, b)-queueDelay(c, b)) })
		case 3:
			// A burst at one timestamp.
			each(func(w *queueWorld) {
				at := w.q.Now() + queueDelay(a, b)
				for k := 0; k <= int(c%8); k++ {
					w.schedule(true, at)
				}
			})
		case 4:
			run(worlds[0].q.Now()+queueDelay(a, b), false)
		case 5:
			run(worlds[0].q.Now()+queueDelay(a, b), true)
		case 6:
			e.width = queueWidths[int(a)%len(queueWidths)]
		case 7:
			each(func(w *queueWorld) { w.schedule(true, math.MaxInt64-queueDelay(a, b)) })
		}
		worlds[0].checkTiers()
		if g, w := e.Now(), worlds[1].q.Now(); g != w {
			t.Fatalf("clock: engine %v, reference %v", g, w)
		}
		if g, w := pending(e), len(worlds[1].q.(*refQueue).evs); g != w {
			t.Fatalf("pending: engine %d, reference %d", g, w)
		}
	}
	run(math.MaxInt64, false)

	got, want := worlds[0].log, worlds[1].log
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("event %d: engine ran %+v, reference %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine ran %d events, reference %d", len(got), len(want))
	}
	return cancelled
}

// TestEngineMatchesReferenceQueue checks that the two-tier queue runs
// exactly the events a plain-slice reference queue would, in the same
// (at, seq) order with the same clock, over random schedules from setup
// and from inside events, equal timestamps, clamped past times and
// negative delays, horizons inside a window, cancelled runs, and
// near-window widths from 1 ns to wider than the run, including one whose
// split overflows.
func TestEngineMatchesReferenceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cancelled := 0
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 4*(50+rng.Intn(150)))
		rng.Read(ops)
		cancelled += runQueueOps(t, ops)
	}
	if cancelled == 0 {
		t.Fatal("no run was cancelled: the trials miss what they test")
	}
}

// FuzzEngineOrder is TestEngineMatchesReferenceQueue over fuzzed
// operations.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 4, 9, 0, 3, 0, 0, 5, 6, 0, 0, 0, 4, 4, 50, 0, 0, 7, 3, 0, 5, 5, 2, 0})
	f.Add([]byte{6, 0, 0, 0, 3, 1, 1, 7, 0, 1, 2, 0, 2, 7, 1, 3, 7, 0, 0, 0, 4, 7, 9, 0, 6, 5, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runQueueOps(t, ops)
	})
}
