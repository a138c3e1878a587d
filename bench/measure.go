package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"time"

	"cityhunter"
	"cityhunter/internal/paper"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured
// untraced, each with the share by which it may worsen: at least about
// three times the spread between runs on different seeds on a shared
// 2-vCPU host, and at most 0.10. Allocation and linking do not depend on
// the host, only on the seed set. The times are corrected for the host's
// speed (see atReferenceSpeed and README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.10},
	{"run_s_p50", "s", "lower", 0.10},
	{"alloc_mb_per_run", "MB", "lower", 0.06},
	{"peak_heap_mb", "MB", "lower", 0.10},
	{"link_f1", "ratio", "higher", 0.05},
}

// cpuLayers are the buckets of the traced pass's CPU profile; setupLayers
// those of the set-up profile. "other" collects the repository's
// remaining packages.
var (
	cpuLayers = []string{"sim", "ieee80211", "client", "attack", "core", "linker", "pnl", "geo",
		"mobility", "scenario", "campaign", "serve", "plan", "stats", "obs", "runtime", "bench", "other"}
	setupLayers = []string{"citygen", "heatmap", "pnl", "wigle", "geo", "runtime", "other"}
)

// perLayer are the traced pass's metrics, one layer each.
var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, l := range cpuLayers {
		out = append(out, metricSpec{Name: l + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	for _, l := range setupLayers {
		out = append(out, metricSpec{Name: "setup." + l + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	return append(out, []metricSpec{
		{Name: "bench.profile_samples", Unit: "count", Better: "higher"},
		{Name: "setup.profile_samples", Unit: "count", Better: "higher"},
		{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
		{Name: "bench.ref_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.cpu_util", Unit: "ratio", Better: "higher"},
		{Name: "gc.cycles_per_run", Unit: "count", Better: "lower"},
		{Name: "gc.pause_ms_per_run", Unit: "ms", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_s", Unit: "events/s", Better: "higher"},
		{Name: "sim.queue_hwm", Unit: "count", Better: "lower"},
		{Name: "medium.frames_sent", Unit: "count", Better: "lower"},
		{Name: "medium.delivered_per_sent", Unit: "ratio", Better: "higher"},
		{Name: "medium.frames_lost", Unit: "count", Better: "lower"},
		{Name: "medium.frames_retried", Unit: "count", Better: "lower"},
		{Name: "attack.probes_heard", Unit: "count", Better: "higher"},
		{Name: "attack.responses_sent", Unit: "count", Better: "lower"},
		{Name: "attack.responses_per_victim", Unit: "ratio", Better: "lower"},
		{Name: "core.replies", Unit: "count", Better: "lower"},
		{Name: "core.batch_mean", Unit: "count", Better: "higher"},
		{Name: "core.hits", Unit: "count", Better: "higher"},
		{Name: "core.adaptations", Unit: "count", Better: "lower"},
		{Name: "core.db_size", Unit: "count", Better: "lower"},
		{Name: "core.tracks", Unit: "count", Better: "lower"},
		{Name: "core.relinks", Unit: "count", Better: "higher"},
		{Name: "lod.promotions", Unit: "count", Better: "lower"},
		{Name: "lod.demotions", Unit: "count", Better: "lower"},
		{Name: "lod.peak_promoted", Unit: "count", Better: "lower"},
		{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.result_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.queue_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.exec_s", Unit: "s", Better: "lower"},
		{Name: "serve.specs_run", Unit: "count", Better: "lower"},
		{Name: "serve.specs_cached", Unit: "count", Better: "higher"},
		{Name: "serve.store_kb_per_job", Unit: "kB", Better: "lower"},
		{Name: "plan.encode_ms", Unit: "ms", Better: "lower"},
		{Name: "plan.decode_ms", Unit: "ms", Better: "lower"},
		{Name: "fidelity.hb_err_pp", Unit: "pp", Better: "lower"},
	}...)
}()

// options sizes one measurement.
type options struct {
	seed     int64
	untraced time.Duration // measured seconds of the untraced pass
	traced   time.Duration // of the traced pass; 0 skips it
	seeds    int           // operations per round; 0 keeps the workload's
	setups   int           // timed set-ups whose median is setup_s
	// setupProfile is how long the traced pass profiles set-ups for (at
	// least setups of them).
	setupProfile time.Duration
	workDir      string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload's measurement.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seeds      int               `json:"seeds_per_round"`
	Rounds     int               `json:"rounds"`
	Runs       int               `json:"runs"`
	TracedRuns int               `json:"traced_runs"`
	Setups     int               `json:"setups"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]value  `json:"metrics"`
	Layers     map[string]value  `json:"layers,omitempty"`
	Digest     string            `json:"digest"`
	Digests    map[string]string `json:"digests"`
}

func (r *report) correct() bool { return r.Failed == 0 }

// mode is what an operation is for.
type mode int

const (
	warmUp mode = iota
	untraced
	traced
)

// collector accumulates one workload's operations.
type collector struct {
	attempted, failed int
	errors            []string
	digests           map[string]string
	venues            map[string]cityhunter.Tally
	pairs             [3]int

	runs, refs, alloc, peaks, gcCycles, gcPause []float64 // untraced operations
	cpu, wall                                   float64
	refFor                                      time.Duration // reference time before the next operation
	heap                                        *heapSampler  // during the untraced pass

	tracedRuns []float64
	counters   counters
	layers     map[string][]float64
}

const maxErrors = 20

func (c *collector) fail(err error) {
	c.failed++
	if len(c.errors) < maxErrors {
		c.errors = append(c.errors, err.Error())
	}
}

// do runs one operation and checks its digest against the first one seen
// for the same seed.
func (c *collector) do(s session, i int, m mode) {
	c.attempted++
	// The traced pass lets the collector run as the workload drives it:
	// a forced collection per operation would land in the profile.
	sw := stopwatch{traced: m == traced, refFor: c.refFor}
	if m == untraced {
		sw.heap = c.heap
	}
	out, err := s.op(i, m == traced, &sw)
	if err == nil && !sw.stopped {
		err = errors.New("operation was not timed")
	}
	if err != nil {
		c.fail(err)
		return
	}
	c.refFor = referenceTime(sw.seconds)
	if ref, ok := c.digests[out.key]; !ok {
		c.digests[out.key] = out.digest
		for v, t := range out.venues {
			pool(c.venues, v, t)
		}
		for k := range c.pairs {
			c.pairs[k] += out.pairs[k]
		}
	} else if ref != out.digest {
		c.fail(fmt.Errorf("seed %s: result digest %.12s differs from %.12s", out.key, out.digest, ref))
		return
	}
	switch m {
	case untraced:
		c.runs = append(c.runs, sw.seconds)
		c.refs = append(c.refs, sw.refs...)
		c.alloc = append(c.alloc, sw.allocMB())
		c.peaks = append(c.peaks, sw.peakMB)
		c.gcCycles = append(c.gcCycles, sw.gcCycles())
		c.gcPause = append(c.gcPause, sw.gcPauseMs())
		c.cpu += sw.cpu
		c.wall += sw.seconds
	case traced:
		c.tracedRuns = append(c.tracedRuns, sw.seconds)
		c.counters.merge(out.counters)
		for k, v := range out.layers {
			c.layers[k] = append(c.layers[k], v)
		}
	}
}

// pass runs whole rounds of the seed set until the middle of the next
// round would fall past budget, so that a pass lasts about budget on
// average; at least one.
func (c *collector) pass(s session, seeds int, budget time.Duration, m mode) int {
	start := time.Now()
	for rounds := 1; ; rounds++ {
		if err := s.round(); err != nil {
			c.fail(err)
			return rounds - 1
		}
		for i := 0; i < seeds; i++ {
			c.do(s, i, m)
		}
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*rounds) > budget {
			return rounds
		}
	}
}

// profileCPU runs fn under a CPU profile at the default 100 Hz.
func profileCPU(fn func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// measure runs one workload: timed set-ups, a warm-up operation, the
// untraced pass and, when asked, the traced pass.
func measure(w workload, o options) *report {
	seeds := w.seeds
	if o.seeds > 0 {
		seeds = o.seeds
	}
	r := &report{Workload: w.name, Seed: o.seed, Seeds: seeds,
		Metrics: map[string]value{}, Digests: map[string]string{}}
	c := &collector{digests: r.Digests, venues: map[string]cityhunter.Tally{},
		counters: counters{}, layers: map[string][]float64{}}
	defer func() {
		r.Attempted, r.Failed, r.Errors = c.attempted, c.failed, c.errors
		r.Digest = digestAll(r.Digests)
	}()

	world, err := cityhunter.NewWorld()
	if err != nil {
		c.fail(err)
		return r
	}
	e := &env{world: world, seed: o.seed, seeds: seeds, workDir: o.workDir}

	var setups, setupRefs []float64
	var refFor time.Duration
	for i := 0; i < o.setups; i++ {
		c.attempted++
		sw := stopwatch{refFor: refFor}
		if err := w.setup(e, &sw); err != nil {
			c.fail(fmt.Errorf("set-up: %w", err))
			continue
		}
		setups = append(setups, sw.seconds)
		setupRefs = append(setupRefs, sw.refs...)
		refFor = referenceTime(sw.seconds)
	}
	r.Setups = len(setups)
	r.Metrics["setup_s"] = value{atReferenceSpeed(median(setups), median(setupRefs)), "s"}
	r.Metrics["setup_s_raw"] = value{median(setups), "s"}
	layers := map[string]value{}
	if o.traced > 0 {
		prof, err := profileCPU(func() {
			for start, i := time.Now(), 0; i < o.setups || time.Since(start) < o.setupProfile; i++ {
				if err := w.setup(e, &stopwatch{traced: true}); err != nil {
					c.fail(fmt.Errorf("set-up: %w", err))
					return
				}
			}
		})
		if err != nil {
			c.fail(err)
			return r
		}
		shares, samples := prof.shares()
		addShares(layers, "setup.", setupLayers, shares)
		layers["setup.profile_samples"] = value{float64(samples), "count"}
	}

	s, err := w.open(e)
	if err != nil {
		c.fail(fmt.Errorf("open: %w", err))
		return r
	}
	defer func() {
		if err := s.close(); err != nil {
			c.fail(fmt.Errorf("close: %w", err))
		}
	}()
	if err := s.round(); err != nil {
		c.fail(err)
		return r
	}
	c.do(s, 0, warmUp)

	c.heap = startHeapSampler()
	r.Rounds = c.pass(s, seeds, o.untraced, untraced)
	c.heap.Stop()
	c.heap = nil
	r.Metrics["peak_heap_mb"] = value{median(c.peaks), "MB"}
	r.Runs = len(c.runs)
	ref := median(c.refs)
	r.Metrics["run_s_p50"] = value{atReferenceSpeed(median(c.runs), ref), "s"}
	r.Metrics["run_s_p50_raw"] = value{median(c.runs), "s"}
	if v, ok := p90(c.runs); ok {
		r.Metrics["run_s_p90"] = value{atReferenceSpeed(v, ref), "s"}
	}
	layers["bench.ref_ms"] = value{1000 * ref, "ms"}
	r.Metrics["alloc_mb_per_run"] = value{mean(c.alloc), "MB"}
	r.Metrics["link_f1"] = value{linkF1(c.pairs), "ratio"}
	if o.traced == 0 {
		return r
	}

	prof, err := profileCPU(func() { c.pass(s, seeds, o.traced, traced) })
	if err != nil {
		c.fail(err)
		return r
	}
	r.TracedRuns = len(c.tracedRuns)
	cs, ls, err := s.traceStats()
	if err != nil {
		c.fail(err)
		return r
	}
	c.counters.merge(cs)
	for k, v := range ls {
		c.layers[k] = append(c.layers[k], v...)
	}
	shares, samples := prof.shares()
	addShares(layers, "", cpuLayers, shares)
	layers["bench.profile_samples"] = value{float64(samples), "count"}
	c.addLayers(layers)
	r.Layers = layers
	return r
}

// addShares reports each named bucket's CPU share under prefix, with
// every unnamed bucket folded into "other", so the shares sum to 1.
func addShares(dst map[string]value, prefix string, names []string, shares map[string]float64) {
	named := map[string]bool{}
	for _, n := range names {
		named[n] = n != "other"
	}
	other := 0.0
	for b, s := range shares {
		if !named[b] {
			other += s
		}
	}
	for _, n := range names {
		v := shares[n]
		if n == "other" {
			v = other
		}
		dst[prefix+n+".cpu_share"] = value{v, "ratio"}
	}
}

// addLayers derives the per-layer metrics from the operations: the
// program's counters per traced operation, client-side medians, the
// runtime's collector, and result fidelity.
func (c *collector) addLayers(dst map[string]value) {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	set := func(name string, v float64) { dst[name] = value{v, units[name]} }
	n := float64(len(c.tracedRuns))
	per := func(counter string) float64 { return ratio(c.counters[counter], n) }

	set("bench.trace_overhead", ratio(median(c.tracedRuns), median(c.runs))-1)
	set("bench.cpu_util", ratio(c.cpu, c.wall))
	set("gc.cycles_per_run", mean(c.gcCycles))
	set("gc.pause_ms_per_run", mean(c.gcPause))

	set("sim.events", per("sim_events_executed"))
	set("sim.events_per_s", ratio(per("sim_events_executed"), mean(c.runs)))
	set("sim.queue_hwm", c.counters["sim_queue_depth_hwm"])
	set("medium.frames_sent", per("medium_frames_sent"))
	set("medium.delivered_per_sent", ratio(c.counters["medium_frames_delivered"], c.counters["medium_frames_sent"]))
	set("medium.frames_lost", per("medium_frames_lost"))
	set("medium.frames_retried", per("medium_frames_retried"))
	set("attack.probes_heard", per("attack_probes_heard"))
	set("attack.responses_sent", per("attack_probe_responses_sent"))
	set("attack.responses_per_victim", ratio(c.counters["attack_probe_responses_sent"], c.counters["attack_victims"]))
	set("core.replies", per("core_broadcast_replies"))
	set("core.batch_mean", ratio(c.counters["core_batch_size_sum"], c.counters["core_batch_size_count"]))
	set("core.hits", per("core_hits"))
	set("core.adaptations", per("core_adaptations"))
	set("core.db_size", per("core_db_size"))
	set("core.tracks", per("core_tracks"))
	set("core.relinks", per("core_relinks"))
	set("lod.promotions", per("scenario_farfield_promotions"))
	set("lod.demotions", per("scenario_farfield_demotions"))
	set("lod.peak_promoted", c.counters["scenario_farfield_peak_promoted"])

	for _, name := range []string{"serve.submit_ms", "serve.result_ms", "serve.queue_ms", "serve.exec_s",
		"serve.specs_run", "serve.specs_cached", "serve.store_kb_per_job", "plan.encode_ms", "plan.decode_ms"} {
		set(name, median(c.layers[name]))
	}

	set("fidelity.hb_err_pp", hbErrPP(c.venues))
}

// hbErrPP is the mean over venues of |pooled h_b − the paper's Figure 5
// average|, in percentage points.
func hbErrPP(venues map[string]cityhunter.Tally) float64 {
	names := make([]string, 0, len(venues))
	for v := range venues {
		names = append(names, v)
	}
	sort.Strings(names)
	var errs []float64
	for _, v := range names {
		if want, ok := paper.Fig5AverageHb[v]; ok && venues[v].Broadcast > 0 {
			errs = append(errs, 100*math.Abs(venues[v].BroadcastHitRate()-want))
		}
	}
	return mean(errs)
}

// linkF1 is the pooled pairwise F1 of the linker against ground truth. As
// in the linker's own report, an empty denominator counts as perfect: a
// run without rotated MACs has no pair to get wrong.
func linkF1(p [3]int) float64 {
	tp, fp, missed := float64(p[0]), float64(p[1]), float64(p[2])
	perfect := func(num, den float64) float64 {
		if den == 0 {
			return 1
		}
		return num / den
	}
	prec, rec := perfect(tp, tp+fp), perfect(tp, tp+missed)
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}

// digestAll folds per-seed digests into one, in seed order.
func digestAll(d map[string]string) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []any
	for _, k := range keys {
		parts = append(parts, k+"="+d[k])
	}
	return digest(parts...)
}
