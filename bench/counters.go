package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cityhunter"
)

// counters holds the program's own metrics, keyed by name and summed over
// label sets (sites, frame subtypes, runs of one job). Histograms appear as
// <name>_sum and <name>_count, as in the Prometheus exposition.
type counters map[string]float64

// maxCounters are high-water marks: they combine by maximum, not sum.
var maxCounters = map[string]bool{
	"sim_queue_depth_hwm":             true,
	"scenario_farfield_peak_promoted": true,
}

func (c counters) add(name string, v float64) {
	if maxCounters[name] {
		c[name] = max(c[name], v)
		return
	}
	c[name] += v
}

// merge folds o into c.
func (c counters) merge(o counters) {
	for k, v := range o {
		c.add(k, v)
	}
}

// snapshotCounters sums a run's WithMetrics snapshot across labels.
func snapshotCounters(snap cityhunter.MetricsSnapshot) counters {
	c := counters{}
	for _, p := range snap {
		if p.Kind == "histogram" {
			c.add(p.Name+"_sum", p.Value)
			c.add(p.Name+"_count", float64(p.Count))
			continue
		}
		c.add(p.Name, p.Value)
	}
	return c
}

// promCounters sums the series of a Prometheus text exposition whose
// labels keep accepts. Histogram buckets are skipped; their _sum and
// _count series are kept.
func promCounters(r io.Reader, keep func(labels map[string]string) bool) (counters, error) {
	c := counters{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, val, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_bucket") || !keep(labels) {
			continue
		}
		c.add(name, val)
	}
	return c, sc.Err()
}

// parsePromLine splits `name{k="v",...} value` into its parts. It follows
// parseSample and parseLabels in internal/promlint, which are unexported;
// keep the label grammar of the two equal until promlint exports its
// parser.
func parsePromLine(line string) (string, map[string]string, float64, error) {
	labels := map[string]string{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("metrics line %q: no value", line)
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
				return "", nil, 0, fmt.Errorf("metrics line %q: bad labels", line)
			}
			k := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			j := 0
			for ; j < len(rest) && rest[j] != '"'; j++ {
				if rest[j] == '\\' && j+1 < len(rest) {
					j++
					if rest[j] == 'n' {
						v.WriteByte('\n')
						continue
					}
				}
				v.WriteByte(rest[j])
			}
			if j >= len(rest) {
				return "", nil, 0, fmt.Errorf("metrics line %q: unterminated label", line)
			}
			labels[k] = v.String()
			rest = rest[j+1:]
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", nil, 0, fmt.Errorf("metrics line %q: no value", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("metrics line %q: %w", line, err)
	}
	return name, labels, v, nil
}
