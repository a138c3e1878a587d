package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the middle of xs, or the mean of the two middle values
// for an even count; 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles returns the n-1 cut points dividing xs into n groups by the
// exclusive method of Python's statistics.quantiles, the method the
// acceptance check uses. One sample yields itself at every cut; none
// yields nil.
func quantiles(xs []float64, n int) []float64 {
	if len(xs) == 0 {
		return nil
	}
	s := sorted(xs)
	ld := len(s)
	out := make([]float64, n-1)
	if ld == 1 {
		for i := range out {
			out[i] = s[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return out
}

// quartiles returns Q1, the median and Q3 of xs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	q := quantiles(xs, 4)
	if q == nil {
		return 0, 0, 0
	}
	return q[0], q[1], q[2]
}

// minTailSamples is how many samples a tail percentile needs so that at
// least ten lie beyond the 90th.
const minTailSamples = 100

// p90 returns the 90th percentile of xs, and false when fewer than
// minTailSamples samples make it meaningless.
func p90(xs []float64) (float64, bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	return quantiles(xs, 10)[8], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stopwatch brackets one operation's timed region. Unless traced, start
// collects garbage, times the reference loop, and collects again; then it
// reads the allocator and CPU counters before the clock starts. stop reads
// them after the clock stops, so none of that is timed.
type stopwatch struct {
	traced bool
	// refFor is how long to keep timing the reference loop before the
	// operation; it runs at least once.
	refFor time.Duration
	refs   []float64 // seconds each reference loop took just before
	// heap, when set, samples the heap while the operation is timed;
	// peakMB is the largest in-use heap it saw.
	heap    *heapSampler
	peakMB  float64
	t0      time.Time
	m0, m1  runtime.MemStats
	cpu0    float64
	seconds float64
	cpu     float64
	stopped bool
}

func (w *stopwatch) start() {
	if !w.traced {
		runtime.GC()
		for start := time.Now(); len(w.refs) == 0 || time.Since(start) < w.refFor; {
			w.refs = append(w.refs, reference())
		}
		runtime.GC()
	}
	runtime.ReadMemStats(&w.m0)
	w.cpu0 = cpuSeconds()
	if w.heap != nil {
		w.heap.begin()
	}
	w.t0 = time.Now()
}

func (w *stopwatch) stop() {
	w.seconds = time.Since(w.t0).Seconds()
	w.cpu = cpuSeconds() - w.cpu0
	if w.heap != nil {
		w.peakMB = w.heap.end()
	}
	runtime.ReadMemStats(&w.m1)
	w.stopped = true
}

func (w *stopwatch) allocMB() float64 {
	return float64(w.m1.TotalAlloc-w.m0.TotalAlloc) / (1 << 20)
}

func (w *stopwatch) gcCycles() float64 { return float64(w.m1.NumGC - w.m0.NumGC) }

func (w *stopwatch) gcPauseMs() float64 {
	return float64(w.m1.PauseTotalNs-w.m0.PauseTotalNs) / 1e6
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler records the largest in-use heap (MemStats.HeapInuse) of
// each timed operation: at its start and end, and every millisecond
// between, so the reference loop and the forced collections between
// operations never count. The heap peaks just before each collection; a
// coarser tick would catch that peak more often in a longer operation, so
// a slower host would read a larger heap. It reads runtime/metrics, which
// does not stop the world.
type heapSampler struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	timing atomic.Bool
	peak   atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if h.timing.Load() {
					h.sample()
				}
			}
		}
	}()
	return h
}

// begin starts the peak of one operation.
func (h *heapSampler) begin() {
	h.peak.Store(0)
	h.sample()
	h.timing.Store(true)
}

// end returns the operation's peak in MB.
func (h *heapSampler) end() float64 {
	h.timing.Store(false)
	h.sample()
	return float64(h.peak.Load()) / (1 << 20)
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	v := s[0].Value.Uint64() + s[1].Value.Uint64()
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

// Stop ends sampling.
func (h *heapSampler) Stop() {
	close(h.stop)
	h.wg.Wait()
}

// referenceSeconds is about what reference takes on the 2-vCPU host the
// bounds were set on.
const referenceSeconds = 0.025

// referenceShare is how much reference time the untraced pass spends
// before each operation, as a share of the previous operation's time, so
// that long operations get as many samples of the host's speed per second
// as short ones.
const referenceShare = 0.1

// referenceTime is how long to time the reference loop before an
// operation that follows one of the given seconds.
func referenceTime(seconds float64) time.Duration {
	return time.Duration(referenceShare * seconds * float64(time.Second))
}

// atReferenceSpeed rescales host seconds measured while reference took
// refSeconds to a host running it in referenceSeconds. On a shared host
// the speed of identical work drifts by 25 % or more over minutes; the
// reference loop, timed between the operations it corrects, drifts with
// it, and it is pure Go with no code from the repository, so no change to
// the program moves it.
func atReferenceSpeed(seconds, refSeconds float64) float64 {
	return seconds * ratio(referenceSeconds, refSeconds)
}

var referenceSink uint64

// reference times a fixed piece of work in four parts, each a kind of work
// the simulator spends its time on: about 40k random map updates over a
// quarter-million-key space and a sort of the values (hashing), four
// binary trees of 32k small nodes built and walked (allocation and pointer
// chasing), an insertion sort of 2000 records by distance (the branchy
// loops of the spatial index), and 1.5M steps of a shift-register
// generator (plain arithmetic). The host's other tenants slow each part
// by a different amount at different times; the sum follows every
// workload's slowdown closer than any one part does.
func reference() float64 {
	t0 := time.Now()
	m := make(map[uint64]uint64)
	x := uint64(88172645463325252)
	for i := 0; i < 40000; i++ {
		x = xorshift(x)
		m[x&0x3ffff] += x
	}
	vs := make([]uint64, 0, len(m))
	for _, v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	referenceSink += vs[0]

	for i := 0; i < 4; i++ {
		referenceSink += walkTree(buildTree(15, &x))
	}

	recs := make([]record, 2000)
	for i := range recs {
		x = xorshift(x)
		recs[i] = record{i, float64(x % 100000)}
	}
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].before(recs[j-1]); j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
	referenceSink += uint64(recs[0].id)

	var sum uint64
	for i := 0; i < 1500000; i++ {
		x = xorshift(x)
		sum += x * 31
	}
	referenceSink += sum
	return time.Since(t0).Seconds()
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

type treeNode struct {
	left, right *treeNode
	v           uint64
}

func buildTree(depth int, x *uint64) *treeNode {
	if depth == 0 {
		return nil
	}
	*x = xorshift(*x)
	return &treeNode{buildTree(depth-1, x), buildTree(depth-1, x), *x}
}

func walkTree(n *treeNode) uint64 {
	if n == nil {
		return 0
	}
	return n.v ^ walkTree(n.left) + walkTree(n.right)
}

type record struct {
	id   int
	dist float64
}

func (r record) before(o record) bool {
	if r.dist != o.dist {
		return r.dist < o.dist
	}
	return r.id < o.id
}
