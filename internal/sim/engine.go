// Package sim provides the discrete-event simulation core: a virtual clock,
// an ordered event queue, and an RF medium that delivers 802.11 frames
// between stations with airtime-accurate timing.
//
// Nothing in this package (or anywhere in the library) reads the wall
// clock: the engine owns time, which makes every experiment deterministic
// and replayable from its seed.
package sim

import (
	"context"
	"time"

	"cityhunter/internal/obs"
)

// ctxPollMask controls how often RunContext polls the context: every
// (ctxPollMask+1) events. 256 events is well under a millisecond of wall
// time for every workload in this repository, so cancellation is prompt
// while the hot loop pays only a mask-and-branch per event.
const ctxPollMask = 0xff

// Engine is a single-threaded discrete-event scheduler. Events execute in
// (time, insertion-order) order; an event may schedule further events.
//
// Events live in a value slice with a free list of recycled slots, and the
// priority queue is a hand-rolled min-heap of slot indices: scheduling in
// steady state allocates nothing beyond the caller's callback, and the
// compact index heap keeps sift operations in cache.
type Engine struct {
	now    time.Duration
	seq    uint64
	events []event // slot storage; recycled through free
	free   []int32 // free slot indices
	heap   []int32 // min-heap of slot indices ordered by (at, seq)

	// Observability handles; nil when uninstrumented (the methods on nil
	// handles are no-ops, so the hot path pays one branch).
	mEvents   *obs.Counter
	mQueueHWM *obs.Gauge
}

// event is one scheduled callback slot.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// Instrument attaches the engine to an observability runtime: it counts
// executed events (sim_events_executed) and tracks the queue-depth
// high-water mark (sim_queue_depth_hwm). A nil runtime or registry is a
// no-op.
func (e *Engine) Instrument(rt *obs.Runtime) {
	if rt == nil || rt.Metrics == nil {
		return
	}
	e.mEvents = rt.Metrics.Counter("sim_events_executed")
	e.mQueueHWM = rt.Metrics.Gauge("sim_queue_depth_hwm")
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn after delay. A non-positive delay runs fn at the current
// time but never before the currently executing event returns.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current time.
func (e *Engine) At(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = int32(len(e.events))
		e.events = append(e.events, event{})
	}
	e.events[id] = event{at: t, seq: e.seq, fn: fn}
	e.heap = append(e.heap, id)
	e.siftUp(len(e.heap) - 1)
	if e.mQueueHWM != nil {
		e.mQueueHWM.SetMax(float64(len(e.heap)))
	}
}

// less orders two event slots by (time, sequence number).
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.events[a], &e.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	h := e.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.less(h[r], h[l]) {
			m = r
		}
		if !e.less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes the earliest event, recycles its slot, and returns its time
// and callback. The caller must ensure the heap is non-empty.
func (e *Engine) pop() (time.Duration, func()) {
	id := e.heap[0]
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev := &e.events[id]
	at, fn := ev.at, ev.fn
	ev.fn = nil // release the closure while the slot sits on the free list
	e.free = append(e.free, id)
	return at, fn
}

// RunContext executes events in order until the queue is empty or the
// next event lies past until, then returns the number of events executed.
// Afterwards the clock rests at until (events cannot move the clock beyond
// until, because any later event stays queued for the next call). The loop
// polls ctx every few hundred events and stops early, returning ctx's
// error, once it is cancelled. On cancellation the clock rests at the last
// executed event (it is NOT advanced to until), so callers see exactly how
// much virtual time was simulated; pending events stay queued.
func (e *Engine) RunContext(ctx context.Context, until time.Duration) (int, error) {
	executed := 0
	err := ctx.Err()
	for err == nil && len(e.heap) > 0 {
		if e.events[e.heap[0]].at > until {
			break
		}
		at, fn := e.pop()
		e.now = at
		fn()
		executed++
		if executed&ctxPollMask == 0 {
			err = ctx.Err()
		}
	}
	e.mEvents.Add(int64(executed))
	if err == nil && e.now < until {
		e.now = until
	}
	return executed, err
}
