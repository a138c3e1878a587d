package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cityhunter"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	// The expected values are Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 7}, [3]float64{-0.5, 4, 8.5}},
		{[]float64{2}, [3]float64{2, 2, 2}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, minTailSamples-1)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := p90(xs); ok {
		t.Errorf("p90 reported with %d samples", len(xs))
	}
	xs = append(xs, 100)
	v, ok := p90(xs)
	if !ok || !near(v, 90.9) { // statistics.quantiles(range(1, 101), n=10)[8]
		t.Errorf("p90 of 1..100 = %v, %v; want 90.9, true", v, ok)
	}
}

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"cityhunter/internal/sim.(*Engine).Run":              "sim",
		"cityhunter/internal/core.(*Engine).reply.func1":     "core",
		"cityhunter/internal/geo.(*HashGrid[...]).Query":     "geo",
		"cityhunter/internal/stats.sortBy[...].func2":        "stats",
		"cityhunter.(*World).Run":                            "cityhunter",
		"cityhunter.NewCampaignServer.func1":                 "cityhunter",
		"cityhunter/internal/obs/monitor.(*Server).gather":   "obs",
		"type:.eq.cityhunter/internal/ieee80211.MAC":         "ieee80211",
		"cityhunter/cmd/benchsnap.main":                      "other",
		"main.(*collector).do":                               "bench",
		"main.openCanteen.func1.1":                           "bench",
		"cityhunter/bench.TestBucket":                        "bench",
		"runtime.mallocgc":                                   "",
		"net/http.(*conn).serve":                             "",
		"encoding/json.(*decodeState).object":                "",
		"cityhunterx/internal/sim.Run":                       "",
		"cityhunter/internal/linker.(*Composite).score-fm":   "linker",
		"cityhunter/internal/scenario.glob..func3":           "scenario",
		"cityhunter/internal/campaign.(*Campaign).Run.func2": "campaign",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileShares charges each sample to its innermost repository frame
// and reads a real profile written by runtime/pprof.
func TestProfileShares(t *testing.T) {
	p := &cpuProfile{
		strings:   []string{"", "runtime.mallocgc", "cityhunter/internal/sim.(*Engine).Run", "main.measure"},
		functions: map[uint64]int64{1: 1, 2: 2, 3: 3},
		// Location 1 inlines mallocgc into the engine; 2 is main; 3 is
		// the runtime alone.
		locations: map[uint64][]uint64{1: {1, 2}, 2: {3}, 3: {1}},
		samples: []profSample{
			{locations: []uint64{1, 2}, count: 3},
			{locations: []uint64{2}, count: 1},
			{locations: []uint64{3}, count: 4},
		},
	}
	shares, n := p.shares()
	want := map[string]float64{"sim": 3.0 / 8, "bench": 1.0 / 8, "runtime": 4.0 / 8}
	if n != 8 || !reflect.DeepEqual(shares, want) {
		t.Errorf("shares = %v over %d, want %v over 8", shares, n, want)
	}

	prof, err := profileCPU(func() {
		x := 0.0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				x += math.Sqrt(float64(i))
			}
		}
		_ = x
	})
	if err != nil {
		t.Fatal(err)
	}
	shares, n = prof.shares()
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if n == 0 || !near(total, 1) || shares["bench"] < 0.5 {
		t.Errorf("real profile: %d samples, shares %v", n, shares)
	}
}

func TestCountersSumAcrossLabels(t *testing.T) {
	snap := cityhunter.MetricsSnapshot{
		{Name: "medium_frames_sent", Labels: "subtype=probe-request", Kind: "counter", Value: 10},
		{Name: "medium_frames_sent", Labels: "subtype=probe-response", Kind: "counter", Value: 32},
		{Name: "core_batch_size", Labels: "site=canteen", Kind: "histogram", Value: 80, Count: 2},
		{Name: "core_batch_size", Labels: "site=mall", Kind: "histogram", Value: 40, Count: 1},
		{Name: "sim_queue_depth_hwm", Labels: "part=0", Kind: "gauge", Value: 7},
		{Name: "sim_queue_depth_hwm", Labels: "part=1", Kind: "gauge", Value: 9},
	}
	got := snapshotCounters(snap)
	want := counters{"medium_frames_sent": 42, "core_batch_size_sum": 120, "core_batch_size_count": 3,
		"sim_queue_depth_hwm": 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshotCounters = %v, want %v", got, want)
	}
	got.merge(counters{"medium_frames_sent": 8, "sim_queue_depth_hwm": 4})
	if got["medium_frames_sent"] != 50 || got["sim_queue_depth_hwm"] != 9 {
		t.Errorf("merge: %v", got)
	}

	text := `# TYPE sim_events_executed counter
sim_events_executed{job="job-1",run="run-2",site="subway passage"} 100
sim_events_executed{job="job-1",run="run-3"} 50
sim_events_executed{job="job-2",run="run-4"} 7
core_batch_size_bucket{job="job-1",le="40"} 3
core_batch_size_sum{job="job-1"} 90
core_batch_size_count{job="job-1"} 3
server_specs_run{component="server"} 48
label_escapes{job="job-1",note="a \"quoted\", spaced} value"} 1
`
	got, err := promCounters(strings.NewReader(text), func(l map[string]string) bool { return l["job"] == "job-1" })
	if err != nil {
		t.Fatal(err)
	}
	want = counters{"sim_events_executed": 150, "core_batch_size_sum": 90, "core_batch_size_count": 3, "label_escapes": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("promCounters = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "run_s_p50", Unit: "s", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{1.00, 1.01, 0.99}, []float64{1.05, 1.04, 1.06}, "ok"},
		{[]float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, "worse"},
		{[]float64{1.0, 1.5, 0.6, 1.3, 0.7}, []float64{1.0, 1.1, 0.9}, "unresolved"},
		{[]float64{1.0, 1.5, 0.6, 1.3, 0.7}, []float64{0.3, 0.4, 0.35}, "ok"}, // every B beats every A
	} {
		if _, _, v := verdict(m, tc.a, tc.b); v != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.a, tc.b, v, tc.want)
		}
	}
	higher := metricSpec{Name: "events", Better: "higher", Bound: 0.10}
	if w, _, v := verdict(higher, []float64{100}, []float64{80}); v != "worse" || !near(w, 0.2) {
		t.Errorf("higher-is-better drop: %v %s", w, v)
	}
}

// writeReports writes one -o report per workload named into dir.
func writeReports(t *testing.T, dir string, names ...string) {
	t.Helper()
	for i, name := range names {
		r := &report{Workload: name, Metrics: map[string]value{}}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = value{1, m.Unit}
		}
		if err := writeJSON(filepath.Join(dir, fmt.Sprintf("r%d.json", i)), fullReport{Workloads: []*report{r}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompareRefusesNothingToCompare: an empty directory, a workload on
// one side only, or two sets without a workload in common is a failure,
// never a silent "ok".
func TestCompareRefusesNothingToCompare(t *testing.T) {
	full, empty, other, unknown := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	writeReports(t, full, "canteen", "canteen")
	writeReports(t, other, "city-serial")
	writeReports(t, unknown, "no-such-workload")
	for _, tc := range []struct {
		a, b string
		want int
	}{
		{full, full, 0},
		{full, empty, 1},
		{empty, full, 1},
		{full, other, 1},
		{unknown, unknown, 1},
	} {
		var out, errOut strings.Builder
		if got := runCompare(tc.a, tc.b, &out, &errOut); got != tc.want {
			t.Errorf("compare %s %s = %d, want %d\n%s%s", tc.a, tc.b, got, tc.want, out.String(), errOut.String())
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the tables this program
// measures and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	var ws []workloadJSON
	for _, w := range workloads {
		ws = append(ws, workloadJSON{w.name, w.why})
	}
	if !reflect.DeepEqual(bj.Workloads, ws) {
		t.Errorf("workloads in BENCHMARK.json:\n%v\nin the program:\n%v", bj.Workloads, ws)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nin the program:\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nin the program:\n%v", bj.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload at its smallest size — one operation per
// round, one round per pass — and checks that each reports every metric
// BENCHMARK.json names, passes its checks, and splits its CPU into
// shares that sum to 1.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		r := measure(w, options{seed: 1, traced: time.Nanosecond, seeds: 1, setups: 1, workDir: t.TempDir()})
		if !r.correct() || r.Runs != 1 || r.TracedRuns != 1 || len(r.Digests) != 1 {
			t.Errorf("%s: %d runs, %d traced, %d of %d failed: %v", w.name, r.Runs, r.TracedRuns, r.Failed, r.Attempted, r.Errors)
		}
		for _, m := range bj.EndToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, %v", w.name, m.Name, v, ok)
			}
		}
		if _, ok := r.Metrics["run_s_p90"]; ok {
			t.Errorf("%s: run_s_p90 reported from one sample", w.name)
		}
		for _, m := range bj.PerLayer {
			if v, ok := r.Layers[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v, %v", w.name, m.Name, v, ok)
			}
		}
		// A single cache hit is over before the 100 Hz profiler samples it;
		// then every share is 0.
		for prefix, base := range map[string]string{"": "bench.profile_samples", "setup.": "setup.profile_samples"} {
			total := 0.0
			for name, v := range r.Layers {
				if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".cpu_share") &&
					strings.Count(name, ".") == strings.Count(prefix, ".")+1 {
					total += v.Value
				}
			}
			if want := math.Min(r.Layers[base].Value, 1); math.Abs(total-want) > 0.01 {
				t.Errorf("%s: %scpu_share values sum to %v over %v samples", w.name, prefix, total, r.Layers[base].Value)
			}
		}
	}
}
