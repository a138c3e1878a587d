package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cityhunter/internal/promlint"
)

// simEventsLine matches one run's sim_events_executed sample on /metrics,
// and runLabel its run identity.
var (
	simEventsLine = regexp.MustCompile(`^sim_events_executed\{(.*)\} (\S+)$`)
	runLabel      = regexp.MustCompile(`run="([^"]+)"`)
)

// scrapeSimEvents reads /metrics and returns sim_events_executed per run
// of the given job.
func scrapeSimEvents(t *testing.T, base, job string) map[string]float64 {
	t.Helper()
	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		m := simEventsLine.FindStringSubmatch(sc.Text())
		if m == nil || !strings.Contains(m[1], `job="`+job+`"`) {
			continue
		}
		run := runLabel.FindStringSubmatch(m[1])
		v, err := strconv.ParseFloat(m[2], 64)
		if run == nil || err != nil {
			t.Fatalf("malformed sample %q", sc.Text())
		}
		out[run[1]] = v
	}
	return out
}

// monitoredRun is the part of a /runs entry the live-scrape test reads.
type monitoredRun struct {
	ID     string            `json:"id"`
	Kind   string            `json:"kind"`
	Status string            `json:"status"`
	Labels map[string]string `json:"labels"`
}

func scrapeRuns(t *testing.T, base string) []monitoredRun {
	t.Helper()
	code, body := getBody(t, base+"/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /runs = %d", code)
	}
	var runs []monitoredRun
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatalf("decode /runs: %v", err)
	}
	return runs
}

// TestLiveScrape scrapes /metrics and /runs in a loop while a campaign
// runs on two workers. The monitor snapshots each running run's registry
// at scrape time, so a scrape must see sim_events_executed of a run still
// running, and once the job is done every run must show its final values,
// never below what a live scrape read. Run it under the race detector:
// the scrapes read registries the workers are writing.
func TestLiveScrape(t *testing.T) {
	_, base := newServer(t, t.TempDir())
	st := submit(t, base, fmt.Sprintf(`{"plan": %s, "seed": 5, "workers": 2}`, testPlanJSON(t, 2, 60)),
		http.StatusAccepted)

	seen := map[string]float64{} // largest live read per run
	sawRunning := false
	for !terminal(getStatus(t, base, st.ID)) {
		// /metrics first: a run /runs still lists as running afterwards was
		// running when its metrics were read.
		live := scrapeSimEvents(t, base, st.ID)
		for _, r := range scrapeRuns(t, base) {
			if v := live[r.ID]; r.Status == "running" && v > 0 {
				sawRunning = true
				seen[r.ID] = max(seen[r.ID], v)
			}
		}
	}
	if done := getStatus(t, base, st.ID); done.State != "finished" {
		t.Fatalf("job ended %q (error %q), want finished", done.State, done.Error)
	}
	if !sawRunning {
		t.Error("no scrape saw sim_events_executed of a running run")
	}

	final := scrapeSimEvents(t, base, st.ID)
	specRuns := 0
	for _, r := range scrapeRuns(t, base) {
		if r.Labels["job"] != st.ID {
			continue
		}
		if r.Status != "finished" {
			t.Errorf("%s (%s) is %s after the job", r.ID, r.Kind, r.Status)
		}
		if r.Kind != "run" {
			continue
		}
		specRuns++
		if v := final[r.ID]; v <= 0 || v < seen[r.ID] {
			t.Errorf("%s final sim_events_executed = %v, want > 0 and at least the live %v", r.ID, v, seen[r.ID])
		}
	}
	if specRuns != 2 {
		t.Errorf("monitor lists %d spec runs of %s, want 2", specRuns, st.ID)
	}
	code, body := getBody(t, base+"/metrics")
	done := regexp.MustCompile(`(?m)^campaign_specs_done\{job="` + st.ID + `",run="run-\d+",workers="2"\} 2$`)
	if code != http.StatusOK || !done.Match(body) {
		t.Errorf("/metrics lacks campaign_specs_done 2 for %s:\n%s", st.ID, body)
	}
}

// TestMergedExpositionLints lints the server's merged /metrics page after
// a real campaign job: the server's own counters beside every run's
// metrics, labelled with the job and run, must be valid Prometheus text
// exposition.
func TestMergedExpositionLints(t *testing.T) {
	_, base := newServer(t, t.TempDir())
	st := submit(t, base, fmt.Sprintf(`{"plan": %s, "seed": 3}`, testPlanJSON(t, 2, 2)), http.StatusAccepted)
	if done := pollUntil(t, base, st.ID, "job completion", terminal); done.State != "finished" {
		t.Fatalf("job ended %q (error %q), want finished", done.State, done.Error)
	}
	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{"server_jobs_finished", `core_hits{`, `job="` + st.ID + `"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	probs, err := promlint.Lint(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Errorf("exposition lint: %s", p)
	}
}
