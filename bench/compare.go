package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// reportSet is a set of -o reports: workload → metric → one value per
// report.
type reportSet map[string]map[string][]float64

// loadSet reads one report file, or every *.json report in a directory;
// a directory without any is an error, not an empty set.
func loadSet(path string) (reportSet, int, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, 0, err
	} else if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, 0, err
		}
		if len(files) == 0 {
			return nil, 0, fmt.Errorf("%s: no *.json reports", path)
		}
		sort.Strings(files)
	}
	set := reportSet{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, 0, err
		}
		var full fullReport
		if err := json.Unmarshal(b, &full); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range full.Workloads {
			if set[r.Workload] == nil {
				set[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				set[r.Workload][name] = append(set[r.Workload][name], v.Value)
			}
		}
	}
	return set, len(files), nil
}

// verdict judges set b against set a for one metric: "worse" when b's
// median is worse than a's by more than the bound, "unresolved" when
// either side's quartile spread is wider than the bound (unless every b
// reads better than every a), and "ok" otherwise. worse is the signed
// change in the metric's worse direction, as a share of a's median.
func verdict(m metricSpec, a, b []float64) (worse, spread float64, v string) {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	worse = ratio(mb-ma, ma)
	if m.Better == "higher" {
		worse = -worse
	}
	spread = max(ratio(qa3-qa1, ma), ratio(qb3-qb1, mb))
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "lower" && y >= x) || (m.Better == "higher" && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case spread > m.Bound && !allBetter:
		return worse, spread, "unresolved"
	case worse > m.Bound:
		return worse, spread, "worse"
	}
	return worse, spread, "ok"
}

// runCompare prints, for each workload and end-to-end metric, each set's
// median and quartiles, the change against the bound, and the verdict.
// It exits 1 when any metric is worse or missing from either side, or when
// the two sides share no workload.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, na, err := loadSet(pathA)
	if err == nil {
		var b reportSet
		var nb int
		b, nb, err = loadSet(pathB)
		if err == nil {
			return printComparison(stdout, a, na, b, nb)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 1
}

func printComparison(stdout io.Writer, a reportSet, na int, b reportSet, nb int) int {
	fmt.Fprintf(stdout, "A: %d reports, B: %d reports; medians [Q1, Q3]; change is B against A, positive = worse\n", na, nb)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tspread\tverdict")
	status, compared := 0, 0
	for _, w := range workloads {
		if a[w.name] == nil && b[w.name] == nil {
			continue
		}
		compared++
		for _, m := range endToEnd {
			va, vb := a[w.name][m.Name], b[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%d values\t%d values\t\t%.0f%%\t\tmissing\n", w.name, m.Name, len(va), len(vb), 100*m.Bound)
				status = 1
				continue
			}
			worse, spread, v := verdict(m, va, vb)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n",
				w.name, m.Name, quartileString(va), quartileString(vb), 100*worse, 100*m.Bound, 100*spread, v)
		}
	}
	tw.Flush()
	if compared == 0 {
		fmt.Fprintln(stdout, "no workload of this benchmark in either set")
		return 1
	}
	return status
}

func quartileString(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
