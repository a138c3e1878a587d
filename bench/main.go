// Command bench is the repository benchmark. It runs fixed-seed workloads
// through the public cityhunter API, closed-loop with one caller, and
// reports end-to-end metrics measured untraced. A traced pass then splits
// the cost by layer from outside the program: client-side timings around
// the calls it makes, the program's own counters (the WithMetrics
// snapshot and the job server's /metrics), and a CPU profile bucketed by
// package. See README.md.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload canteen --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh -seed 1 -o out.json     # every workload, both passes
//	bash bench/run.sh -compare setA setB      # two sets of -o reports
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics (-trace 0) or the per-layer ones (-trace 1). The
// exit status is 1 when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// provenance records what a report was measured on.
type provenance struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
}

// fullReport is the -o document.
type fullReport struct {
	Provenance provenance `json:"provenance"`
	Workloads  []*report  `json:"workloads"`
}

// driverLine is the last line printed in -workload mode.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload (default: every workload, untraced then traced)")
	seed := fs.Int64("seed", 1, "workload seed: picks the run and job seeds (≥ 0)")
	seconds := fs.Float64("seconds", 16, "measured seconds of the untraced pass")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
	out := fs.String("o", "", "also write the full report as JSON to this file")
	compare := fs.Bool("compare", false, "compare two sets of -o reports: -compare A B, each a file or a directory of them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two report sets")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seed < 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	// Result stores live inside the checkout, under the ignored build dir.
	err := os.MkdirAll(".bench_build", 0o755)
	var workDir string
	if err == nil {
		workDir, err = os.MkdirTemp(".bench_build", "work-")
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	budget := time.Duration(*seconds * float64(time.Second))
	o := options{seed: *seed, untraced: budget, traced: budget / 2, setups: 41,
		setupProfile: time.Second, workDir: workDir}
	if *name != "" && *trace == 0 {
		o.traced = 0
	} else if *name != "" {
		// Split the run: half untraced for the baseline the overhead and
		// rates divide by, half traced.
		o.untraced, o.traced = budget/2, budget/2
	}
	prov := machine(*seed, *seconds, *trace)
	fmt.Fprintf(stdout, "machine: %d CPUs, GOMAXPROCS %d, %s, commit %s (dirty %v); seed %d, %gs per pass\n",
		prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Commit, prov.Dirty, *seed, *seconds)

	full := fullReport{Provenance: prov}
	ok := true
	for _, w := range selected {
		r := measure(w, o)
		printReport(stdout, r)
		full.Workloads = append(full.Workloads, r)
		ok = ok && r.correct()
	}
	if *out != "" {
		if err := writeJSON(*out, full); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			ok = false
		}
	}
	if *name != "" {
		r := full.Workloads[0]
		specs := endToEnd
		if *trace == 1 {
			specs = perLayer
		}
		line := driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
		for _, m := range specs {
			v, found := r.Metrics[m.Name]
			if !found {
				v, found = r.Layers[m.Name]
			}
			if !found {
				// A failed run has nothing to report; print no result.
				fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", r.Workload, m.Name)
				return 1
			}
			line.Metrics[m.Name] = v
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !ok {
		return 1
	}
	return 0
}

// machine records the CPU count, GOMAXPROCS, Go version and commit.
// The commit comes from the build's VCS stamp, or from git when the
// binary was built without one.
func machine(seed int64, seconds float64, trace int) provenance {
	p := provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Seconds: seconds, Trace: trace}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	if p.Commit == "unknown" {
		if _, err := os.Stat(".git"); err == nil {
			if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
				p.Commit = strings.TrimSpace(string(out))
			}
			if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
				p.Dirty = len(strings.TrimSpace(string(out))) > 0
			}
		}
	}
	return p
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "%s: %d seeds x %d rounds = %d runs, %d traced, %d set-ups; %d of %d operations failed\n",
		r.Workload, r.Seeds, r.Rounds, r.Runs, r.TracedRuns, r.Setups, r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	printValues(w, r.Metrics)
	printValues(w, r.Layers)
	fmt.Fprintf(w, "  result digest %s over %d seeds\n", r.Digest, len(r.Digests))
}

func printValues(w io.Writer, vs map[string]value) {
	names := make([]string, 0, len(vs))
	for n := range vs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", n, vs[n].Value, vs[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
