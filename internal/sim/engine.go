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
	"math"
	"time"

	"cityhunter/internal/obs"
)

// ctxPollMask controls how often RunContext polls the context: every
// (ctxPollMask+1) events. 256 events is well under a millisecond of wall
// time for every workload in this repository, so cancellation is prompt
// while the hot loop pays only a mask-and-branch per event.
const ctxPollMask = 0xff

// nearWindow is the width of the near heap's time window. Most events
// (frame deliveries, scan-window closes) land a few milliseconds ahead,
// while arrivals, walks and far-field timers land seconds to hours ahead;
// a window of about 134 ms holds the burst traffic of several scans and
// leaves the long timers out of every sift. Any width gives the same
// execution order; on the canteen and city-serial benchmark workloads
// 2^25, 2^27 and 2^30 ns ran within noise of each other.
const nearWindow = 1 << 27 * time.Nanosecond

// Engine is a single-threaded discrete-event scheduler. Events execute in
// (time, insertion-order) order; an event may schedule further events.
//
// The queue has two tiers of value events. The near heap holds every
// pending event before split, the far heap every one at or after it, so
// the short-horizon events that make up most of a run sift through a
// shallow heap while long timers wait in the far one. When the near heap
// runs dry, the engine moves the far events of the next window into it;
// a schedule onto an empty queue opens a window at its own time.
// Scheduling in steady state allocates nothing beyond the caller's
// callback.
type Engine struct {
	now   time.Duration
	seq   uint64
	near  eventHeap // every pending event with at < split
	far   eventHeap // every pending event with at >= split
	split time.Duration
	width time.Duration // near window width; nearWindow outside tests
	hwm   int           // queue-depth high-water mark since Instrument

	// Observability handles; nil when uninstrumented (the methods on nil
	// handles are no-ops, so the hot path pays one branch).
	mEvents   *obs.Counter
	mQueueHWM *obs.Gauge
}

// event is one scheduled callback, ordered by (at, seq).
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Instrument attaches the engine to an observability runtime: it counts
// executed events (sim_events_executed) and tracks the queue-depth
// high-water mark (sim_queue_depth_hwm) from here on. Both are published
// when RunContext returns. A nil runtime or registry is a no-op.
func (e *Engine) Instrument(rt *obs.Runtime) {
	if rt == nil || rt.Metrics == nil {
		return
	}
	e.mEvents = rt.Metrics.Counter("sim_events_executed")
	e.mQueueHWM = rt.Metrics.Gauge("sim_queue_depth_hwm")
	e.hwm = 0
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{width: nearWindow}
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
	if len(e.near) == 0 && len(e.far) == 0 {
		e.split = windowEnd(t, e.width) // an empty queue opens a window at t
	}
	if t < e.split {
		e.near.push(event{at: t, seq: e.seq, fn: fn})
	} else {
		e.far.push(event{at: t, seq: e.seq, fn: fn})
	}
	if n := len(e.near) + len(e.far); n > e.hwm {
		e.hwm = n
	}
}

// refill starts the next window once the near heap is empty: split moves
// to the earliest far event plus the window width, and every far event
// before it moves to the near heap. They leave the far heap in order, and
// an ascending slice is already a heap, so each push stops at once.
func (e *Engine) refill() {
	e.split = windowEnd(e.far[0].at, e.width)
	for len(e.far) > 0 && (e.far[0].at < e.split || e.split == math.MaxInt64) {
		e.near.push(e.far.pop())
	}
}

// windowEnd returns start+width, saturated at the end of time.
func windowEnd(start, width time.Duration) time.Duration {
	if end := start + width; end >= start {
		return end
	}
	return math.MaxInt64
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
	for err == nil {
		if len(e.near) == 0 {
			if len(e.far) == 0 {
				break
			}
			e.refill()
		}
		if e.near[0].at > until {
			break
		}
		ev := e.near.pop()
		e.now = ev.at
		ev.fn()
		executed++
		if executed&ctxPollMask == 0 {
			err = ctx.Err()
		}
	}
	e.mEvents.Add(int64(executed))
	e.mQueueHWM.SetMax(float64(e.hwm))
	if err == nil && e.now < until {
		e.now = until
	}
	return executed, err
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq): half the
// depth of a binary heap, and a node's children share a cache line or two.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the closure
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}
