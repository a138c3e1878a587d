package sim

import (
	"container/heap"
	"context"
	"fmt"
	"sync"
	"time"
)

// Partitioned coordinates several single-threaded Engines as one
// conservative parallel discrete-event simulation. Each partition owns a
// disjoint slice of the world (its own Engine, Medium, populations) and
// advances in bounded time windows: the coordinator picks a horizon no
// further than the lookahead ahead of the global clock, delivers every
// pending cross-partition message due inside the window onto its
// destination engine, runs all partitions concurrently to the horizon,
// joins them at a barrier, collects the messages they posted, runs any
// global events due exactly at the horizon, and advances.
//
// Determinism is independent of both the partition count and GOMAXPROCS
// because nothing about the schedule depends on either:
//
//   - The window sequence is a pure function of (lookahead, global events,
//     until) — partitions never shift a horizon.
//   - Cross-partition messages are merged in (time, source key, per-source
//     sequence) order, where the source key is a stable identity (the
//     posting site), not a partition index, and per-source sequences follow
//     each source's own posting order. How sources are grouped onto
//     partitions therefore cannot reorder the merge.
//   - Messages are delivered before the window runs, so each destination
//     engine executes them at their exact timestamps in its usual
//     (time, insertion) order; within one timestamp, events scheduled in
//     earlier windows sort before delivered messages, which sort before
//     events scheduled during the window — the same order at any width.
//
// The price of the scheme is the lookahead contract: a message posted at
// virtual time t must be stamped at least t+lookahead. A message that
// violates the contract is not lost — it is delivered at the next barrier,
// clamped to the then-current horizon — but it executes later than its
// stamp says, so violations are counted and ought to be zero.
type Partitioned struct {
	parts     []*Engine
	lookahead time.Duration
	now       time.Duration

	pending  msgHeap
	outboxes [][]crossMsg // one per partition, written only by its goroutine
	srcSeq   map[int]uint64

	globals   globalHeap
	gseq      uint64
	results   []partResult
	violation int
}

// crossMsg is one cross-partition message: fn runs on partition dst's
// engine at time at. src is the stable merge key (site index), seq the
// per-src posting sequence assigned at collection.
type crossMsg struct {
	at  time.Duration
	src int
	seq uint64
	dst int
	fn  func()
}

type msgHeap []crossMsg

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].src != h[j].src {
		return h[i].src < h[j].src
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x interface{}) { *h = append(*h, x.(crossMsg)) }
func (h *msgHeap) Pop() interface{} {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

// globalEvent runs on the coordinator goroutine at a window barrier whose
// horizon equals at exactly: every partition clock reads at, and none is
// running. period > 0 re-arms the event after each firing.
type globalEvent struct {
	at     time.Duration
	seq    uint64
	period time.Duration
	fn     func()
}

type globalHeap []globalEvent

func (h globalHeap) Len() int { return len(h) }
func (h globalHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h globalHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *globalHeap) Push(x interface{}) { *h = append(*h, x.(globalEvent)) }
func (h *globalHeap) Pop() interface{} {
	old := *h
	n := len(old)
	g := old[n-1]
	*h = old[:n-1]
	return g
}

type partResult struct {
	n   int
	err error
}

// NewPartitioned builds a coordinator over n fresh engines with the given
// lookahead. The lookahead bounds every window and must be positive; every
// message posted at virtual time t must be stamped ≥ t+lookahead.
func NewPartitioned(n int, lookahead time.Duration) (*Partitioned, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: partition count %d must be ≥ 1", n)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: lookahead %v must be positive", lookahead)
	}
	p := &Partitioned{
		parts:     make([]*Engine, n),
		lookahead: lookahead,
		outboxes:  make([][]crossMsg, n),
		srcSeq:    map[int]uint64{},
		results:   make([]partResult, n),
	}
	for i := range p.parts {
		p.parts[i] = NewEngine()
	}
	return p, nil
}

// Parts returns the partition count.
func (p *Partitioned) Parts() int { return len(p.parts) }

// Part returns partition i's engine. Outside RunContext any goroutine may
// schedule on it; during a window only partition i's own events may.
func (p *Partitioned) Part(i int) *Engine { return p.parts[i] }

// Now returns the last completed barrier time. Call it only from the
// coordinator goroutine or from global events — never from inside a
// running partition, whose own engine clock is the one that is exact.
func (p *Partitioned) Now() time.Duration { return p.now }

// LookaheadViolations counts messages that arrived stamped at or before
// the horizon of the window that posted them. They were delivered late
// (at the next barrier); a correct lookahead keeps this at zero.
func (p *Partitioned) LookaheadViolations() int { return p.violation }

// Post sends fn to partition dst to run at time at. from is the posting
// partition (only its own goroutine may post on its behalf); src is the
// stable merge key — the posting site's index, NOT its partition — so the
// cross-partition merge order survives any regrouping of sites onto
// partitions. Messages route through the coordinator even when from == dst:
// delivery order must not depend on whether two sites share a partition.
func (p *Partitioned) Post(from, src int, at time.Duration, dst int, fn func()) {
	p.outboxes[from] = append(p.outboxes[from], crossMsg{at: at, src: src, dst: dst, fn: fn})
}

// GlobalEvery schedules fn at now+delay and then every period thereafter,
// each firing at a window barrier. period must be positive.
func (p *Partitioned) GlobalEvery(delay, period time.Duration, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: GlobalEvery period %v must be positive", period))
	}
	heap.Push(&p.globals, globalEvent{at: p.now + delay, seq: p.gseq, period: period, fn: fn})
	p.gseq++
}

// collect drains every outbox into the pending heap, assigning each
// message its per-source sequence number in posting order. horizon is the
// window that just ran (messages stamped at or before it violate the
// lookahead contract — counted, then delivered next barrier).
func (p *Partitioned) collect(horizon time.Duration) {
	for i := range p.outboxes {
		for _, m := range p.outboxes[i] {
			m.seq = p.srcSeq[m.src]
			p.srcSeq[m.src]++
			if m.at <= horizon {
				p.violation++
			}
			heap.Push(&p.pending, m)
		}
		p.outboxes[i] = p.outboxes[i][:0]
	}
}

// deliver schedules every pending message due at or before horizon onto
// its destination engine, in (time, source, sequence) merge order.
func (p *Partitioned) deliver(horizon time.Duration) {
	for len(p.pending) > 0 && p.pending[0].at <= horizon {
		m := heap.Pop(&p.pending).(crossMsg)
		p.parts[m.dst].At(m.at, m.fn)
	}
}

// runGlobalsDue fires global events with at ≤ now in (time, arming) order,
// re-arming periodic ones.
func (p *Partitioned) runGlobalsDue(now time.Duration) {
	for len(p.globals) > 0 && p.globals[0].at <= now {
		g := heap.Pop(&p.globals).(globalEvent)
		g.fn()
		if g.period > 0 {
			g.at += g.period
			g.seq = p.gseq
			p.gseq++
			heap.Push(&p.globals, g)
		}
	}
}

// RunContext advances every partition to until in lookahead-bounded
// windows, returning the total events executed across partitions. On
// context cancellation every partition goroutine is joined before the
// error returns; Now() then reports the last completed barrier, and the
// partition engines rest wherever the cancel caught them.
func (p *Partitioned) RunContext(ctx context.Context, until time.Duration) (int, error) {
	executed := 0
	p.collect(-1) // setup-time posts precede virtual time 0
	p.runGlobalsDue(p.now)
	for p.now < until {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		w := p.now + p.lookahead
		if w > until {
			w = until
		}
		// A global event inside the window shrinks it so the event fires
		// at an exact barrier, with every partition clock reading its
		// timestamp (the "min(next knowledge sync) − now" horizon).
		if len(p.globals) > 0 && p.globals[0].at < w {
			w = p.globals[0].at
		}
		p.deliver(w)
		n, err := p.runWindow(ctx, w)
		executed += n
		if err != nil {
			return executed, err
		}
		p.collect(w)
		p.now = w
		p.runGlobalsDue(p.now)
	}
	return executed, nil
}

// runWindow runs every partition engine to horizon w, concurrently when
// there is more than one, and joins them all before returning — also on
// cancellation, so no partition goroutine outlives the call.
func (p *Partitioned) runWindow(ctx context.Context, w time.Duration) (int, error) {
	if len(p.parts) == 1 {
		return p.parts[0].RunContext(ctx, w)
	}
	var wg sync.WaitGroup
	for i := range p.parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := p.parts[i].RunContext(ctx, w)
			p.results[i] = partResult{n: n, err: err}
		}(i)
	}
	wg.Wait()
	total := 0
	var firstErr error
	for i := range p.results {
		total += p.results[i].n
		if firstErr == nil && p.results[i].err != nil {
			firstErr = p.results[i].err
		}
	}
	return total, firstErr
}
