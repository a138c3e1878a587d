// Package promlint validates Prometheus text exposition (format 0.0.4)
// the way promtool's `check metrics` pass would, with no dependency on the
// Prometheus toolchain. It exists so tests can fail on a malformed
// /metrics page — bad escaping, duplicate series, non-cumulative histogram
// buckets — using only the standard library: the monitor's, a monitored
// cityhunter-sim run's and the job server's pages are linted.
//
// The linter is deliberately stricter than the wire parser: problems that
// scrape fine but trip real-world tooling (missing HELP, TYPE after the
// first sample, counters not ending in _total are NOT flagged because this
// repo predates that convention) are reported as problems too.
package promlint

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Problem is one lint finding, tied to the 1-based exposition line.
type Problem struct {
	Line int
	Msg  string
}

func (p Problem) String() string { return fmt.Sprintf("line %d: %s", p.Line, p.Msg) }

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

type family struct {
	typ      string
	helpLine int
	typeLine int
	sampled  bool
}

// Lint reads one exposition page and returns every problem found, in line
// order. An empty slice means the page is clean.
func Lint(r io.Reader) ([]Problem, error) {
	var probs []Problem
	add := func(line int, format string, args ...any) {
		probs = append(probs, Problem{Line: line, Msg: fmt.Sprintf(format, args...)})
	}

	families := map[string]*family{}
	fam := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{}
			families[name] = f
		}
		return f
	}
	// series key (name + sorted labels) -> first line, for duplicate checks.
	seen := map[string]int{}
	// histogram buckets per series-minus-le, in declaration order.
	type bucket struct {
		le    float64
		count float64
		line  int
	}
	buckets := map[string][]bucket{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			lintComment(line, n, fam, add)
			continue
		}
		name, labels, value, ok := parseSample(line, n, add)
		if !ok {
			continue
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		f, isHist := families[base]
		if isHist && f.typ == "histogram" && base != name {
			f.sampled = true
		} else {
			fam(name).sampled = true
			if ff := families[name]; ff.typ == "" && ff.helpLine == 0 {
				add(n, "sample %q has no # TYPE (or # HELP) line", name)
			}
		}

		key := seriesKey(name, labels)
		if first, dup := seen[key]; dup {
			add(n, "duplicate series %s (first seen line %d)", key, first)
		} else {
			seen[key] = n
		}

		if strings.HasSuffix(name, "_bucket") && isHist && f.typ == "histogram" {
			leStr, ok := labels["le"]
			if !ok {
				add(n, "histogram bucket %q is missing the le label", name)
				continue
			}
			le, err := parseFloat(leStr)
			if err != nil {
				add(n, "histogram bucket %q has unparseable le=%q", name, leStr)
				continue
			}
			rest := map[string]string{}
			for k, v := range labels {
				if k != "le" {
					rest[k] = v
				}
			}
			bkey := seriesKey(base, rest)
			buckets[bkey] = append(buckets[bkey], bucket{le: le, count: value, line: n})
		}
	}
	if err := sc.Err(); err != nil {
		return probs, err
	}

	for name, f := range families {
		if f.typeLine > 0 && !f.sampled {
			add(f.typeLine, "metric %q declared but never sampled", name)
		}
	}
	for key, bs := range buckets {
		last := bs[len(bs)-1]
		if last.le != inf {
			add(last.line, "histogram %s has no +Inf bucket", key)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				add(bs[i].line, "histogram %s buckets not in increasing le order", key)
			}
			if bs[i].count < bs[i-1].count {
				add(bs[i].line, "histogram %s bucket counts not cumulative (le=%g count %g < le=%g count %g)",
					key, bs[i].le, bs[i].count, bs[i-1].le, bs[i-1].count)
			}
		}
	}

	sort.SliceStable(probs, func(i, j int) bool { return probs[i].Line < probs[j].Line })
	return probs, nil
}

var inf = math.Inf(1)

func lintComment(line string, n int, fam func(string) *family, add func(int, string, ...any)) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return // bare comment, fine
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 {
			add(n, "# HELP without a metric name")
			return
		}
		name := fields[2]
		if !metricNameRe.MatchString(name) {
			add(n, "# HELP for invalid metric name %q", name)
		}
		f := fam(name)
		if f.helpLine > 0 {
			add(n, "second # HELP for %q (first at line %d)", name, f.helpLine)
		}
		f.helpLine = n
	case "TYPE":
		if len(fields) < 4 {
			add(n, "# TYPE needs a metric name and a type")
			return
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !metricNameRe.MatchString(name) {
			add(n, "# TYPE for invalid metric name %q", name)
		}
		if !validTypes[typ] {
			add(n, "# TYPE %s has unknown type %q", name, typ)
		}
		f := fam(name)
		if f.typeLine > 0 {
			add(n, "second # TYPE for %q (first at line %d)", name, f.typeLine)
		}
		if f.sampled {
			add(n, "# TYPE for %q after its first sample", name)
		}
		f.typ = typ
		f.typeLine = n
	}
}

// parseSample splits `name{labels} value [timestamp]`. Returns ok=false
// (with problems recorded) when the line is unusable.
func parseSample(line string, n int, add func(int, string, ...any)) (string, map[string]string, float64, bool) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		add(n, "sample line has no value: %q", line)
		return "", nil, 0, false
	}
	name := rest[:i]
	if !metricNameRe.MatchString(name) {
		add(n, "invalid metric name %q", name)
		return "", nil, 0, false
	}
	labels := map[string]string{}
	if rest[i] == '{' {
		var ok bool
		rest, ok = parseLabels(rest[i+1:], n, name, labels, add)
		if !ok {
			return "", nil, 0, false
		}
	} else {
		rest = rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		add(n, "sample %q needs `value [timestamp]`, got %q", name, strings.TrimSpace(rest))
		return "", nil, 0, false
	}
	v, err := parseFloat(fields[0])
	if err != nil {
		add(n, "sample %q has unparseable value %q", name, fields[0])
		return "", nil, 0, false
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			add(n, "sample %q has unparseable timestamp %q", name, fields[1])
		}
	}
	return name, labels, v, true
}

// parseLabels consumes `k="v",...}` handling \\, \" and \n escapes, filling
// labels and returning the remainder after the closing brace.
func parseLabels(s string, n int, metric string, labels map[string]string, add func(int, string, ...any)) (string, bool) {
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return s[1:], true
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			add(n, "sample %q: unterminated label set", metric)
			return "", false
		}
		key := strings.TrimSpace(s[:eq])
		if !labelNameRe.MatchString(key) {
			add(n, "sample %q: invalid label name %q", metric, key)
			return "", false
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			add(n, "sample %q: label %q value not quoted", metric, key)
			return "", false
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				add(n, "sample %q: unterminated label value for %q", metric, key)
				return "", false
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					add(n, "sample %q: dangling escape in label %q", metric, key)
					return "", false
				}
				e := s[0]
				s = s[1:]
				switch e {
				case '\\', '"':
					val.WriteByte(e)
				case 'n':
					val.WriteByte('\n')
				default:
					add(n, "sample %q: invalid escape \\%c in label %q", metric, e, key)
					return "", false
				}
				continue
			}
			val.WriteByte(c)
		}
		if _, dup := labels[key]; dup {
			add(n, "sample %q: duplicate label %q", metric, key)
		}
		labels[key] = val.String()
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
}

func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return inf, nil
	case "-Inf":
		return -inf, nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}
