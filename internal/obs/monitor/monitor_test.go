package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/obs"
	"cityhunter/internal/promlint"
)

// publishDemoRun registers one run with its registry and pushes an
// association event through the publisher interface.
func publishDemoRun(s *Server) obs.RunPublisher {
	reg := obs.NewRegistry()
	reg.Counter("attack_hits").Add(7)
	reg.Counter("attack_victims").Add(2)
	rp := s.StartRun(obs.RunInfo{
		Kind:  "run",
		Label: "canteen/cityhunter/slot4",
		Labels: map[string]string{
			"attack": "cityhunter",
			"seed":   "1",
		},
		Metrics: reg,
	})
	rp.PublishEvent(obs.Event{At: 3 * time.Second, Type: obs.EventAssociation,
		Actor: "02:00:00:aa:bb:cc", Detail: `associated via "TP-Link_Home"`})
	return rp
}

// TestMonitorEndpoints round-trips one run through the HTTP surface:
// /metrics must carry the run-stamped counters and pass the vendored
// exposition linter, /runs and /runs/{id} must report the run's status.
func TestMonitorEndpoints(t *testing.T) {
	s := New()
	rp := publishDemoRun(s)
	rp.FinishRun(30*time.Second, nil)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// /metrics: content type, run identity labels, lint-clean exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q, want 0.0.4 exposition", ct)
	}
	probs, err := promlint.Lint(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Errorf("exposition lint: %s", p)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	body := sb.String()
	for _, want := range []string{
		`attack_hits{attack="cityhunter",run="run-1",seed="1"} 7`,
		"monitor_runs_started 1",
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /runs: one finished run with the synthesised first-association event
	// counted alongside start, association and finish.
	resp, err = http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&runs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != "run-1" || runs[0].Status != "finished" {
		t.Fatalf("/runs = %+v, want one finished run-1", runs)
	}
	if runs[0].Events != 4 { // start, association, first-association, finish
		t.Errorf("run events = %d, want 4", runs[0].Events)
	}

	// /runs/run-1: detail carries the metric snapshot and the journal tail.
	resp, err = http.Get(ts.URL + "/runs/run-1")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Metrics      obs.Snapshot `json:"metrics"`
		RecentEvents []obs.Event  `json:"recent_events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&detail)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v := detail.Metrics.Value("attack_hits"); v != 7 {
		t.Errorf("run detail attack_hits = %v, want 7", v)
	}
	types := make([]string, 0, len(detail.RecentEvents))
	for _, e := range detail.RecentEvents {
		types = append(types, e.Type)
	}
	if len(types) != 4 || types[2] != obs.EventFirstAssociation {
		t.Errorf("run events = %v, want first-association synthesised third", types)
	}
}

// TestMetricsPulledAndFrozen: a running run's metrics are read from its
// registry at scrape time, and FinishRun freezes them, so later writes to
// the registry never show.
func TestMetricsPulledAndFrozen(t *testing.T) {
	s := New()
	reg := obs.NewRegistry()
	hits := reg.Counter("attack_hits")
	hits.Add(3)
	rp := s.StartRun(obs.RunInfo{Kind: "run", Metrics: reg})
	scrape := func() float64 { return s.gather().Value("attack_hits", "run", "run-1") }

	if got := scrape(); got != 3 {
		t.Errorf("live scrape = %v, want 3", got)
	}
	hits.Add(4)
	if got := scrape(); got != 7 {
		t.Errorf("live scrape after a write = %v, want 7", got)
	}
	rp.FinishRun(time.Minute, nil)
	hits.Add(100)
	reg.Counter("attack_late").Inc()
	if got := scrape(); got != 7 {
		t.Errorf("finished run scrape = %v, want its final 7", got)
	}
	if _, ok := s.gather().Get("attack_late", "run", "run-1"); ok {
		t.Error("a metric registered after FinishRun shows on /metrics")
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/runs/run-1")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	err = json.NewDecoder(resp.Body).Decode(&detail)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if v := detail.Metrics.Value("attack_hits"); v != 7 {
		t.Errorf("finished run detail attack_hits = %v, want 7", v)
	}
}

// TestRunsActive follows monitor_runs_active through starts, a clean
// finish, a failure and repeated finishes, which must not count twice.
func TestRunsActive(t *testing.T) {
	s := New()
	active := func(want float64) {
		t.Helper()
		if got := s.gRunsActive.Value(); got != want {
			t.Errorf("monitor_runs_active = %v, want %v", got, want)
		}
	}
	a := s.StartRun(obs.RunInfo{Kind: "run"})
	b := s.StartRun(obs.RunInfo{Kind: "run"})
	active(2)
	a.FinishRun(time.Second, nil)
	active(1)
	b.FinishRun(time.Second, errors.New("cancelled"))
	active(0)
	a.FinishRun(2*time.Second, nil)
	b.FinishRun(2*time.Second, nil)
	active(0)
	s.StartRun(obs.RunInfo{Kind: "run"})
	active(1)

	st := s.runs["run-2"].statusJSON()
	if st.Status != "failed" || st.Error != "cancelled" || st.VirtualSeconds != 1 {
		t.Errorf("run-2 after a repeated finish = %+v, want the first finish's failure at 1s", st)
	}
	if st.Events != 2 { // start, finish
		t.Errorf("run-2 events = %d, want 2: a repeated finish is not journalled", st.Events)
	}
}

// TestRunEventRing overflows one run's event ring: /runs/{id} reports the
// ring full at DefaultEventCap, every event beyond it (the run-start event
// included) as dropped, and the newest events in publication order.
func TestRunEventRing(t *testing.T) {
	s := New()
	rp := s.StartRun(obs.RunInfo{Kind: "run"})
	const published = DefaultEventCap + 500
	for i := 1; i <= published; i++ {
		rp.PublishEvent(obs.Event{At: time.Duration(i) * time.Millisecond, Type: obs.EventFrameLoss})
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/runs/run-1")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Events        int         `json:"events"`
		EventsDropped int         `json:"events_dropped"`
		RecentEvents  []obs.Event `json:"recent_events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&detail)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if detail.Events != DefaultEventCap {
		t.Errorf("events = %d, want the cap %d", detail.Events, DefaultEventCap)
	}
	if want := published + 1 - DefaultEventCap; detail.EventsDropped != want {
		t.Errorf("events_dropped = %d, want %d", detail.EventsDropped, want)
	}
	if len(detail.RecentEvents) != recentEventTail {
		t.Fatalf("recent_events holds %d, want %d", len(detail.RecentEvents), recentEventTail)
	}
	for i, e := range detail.RecentEvents {
		if want := time.Duration(published-recentEventTail+1+i) * time.Millisecond; e.At != want {
			t.Fatalf("recent event %d at %v, want %v: not the newest in order", i, e.At, want)
		}
	}
}

// TestSSEStream subscribes over a real connection and checks a published
// event arrives framed as SSE.
func TestSSEStream(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The subscriber is registered synchronously in the handler before the
	// retry preamble is flushed; wait for that first line, then publish.
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "retry:") {
		t.Fatalf("SSE preamble = %q, %v", line, err)
	}
	publishDemoRun(s)

	var data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
			break
		}
	}
	const want = `{"run":"run-1","at":0,"type":"run-start","actor":"canteen/cityhunter/slot4","detail":"kind=run"}`
	if data != want {
		t.Errorf("first SSE event = %s, want %s", data, want)
	}
}

// TestSSEDisconnectReleasesSubscriber checks a departing client frees its
// subscriber slot — the leak a long-lived monitor cannot afford.
func TestSSEDisconnectReleasesSubscriber(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	waitFor := func(want float64) bool {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if s.gSubscribers.Value() == want {
				return true
			}
			time.Sleep(5 * time.Millisecond)
		}
		return false
	}
	if !waitFor(1) {
		t.Fatal("subscriber never registered")
	}

	cancel()
	resp.Body.Close()
	if !waitFor(0) {
		t.Fatal("subscriber not released after disconnect")
	}

	// Broadcasting after the disconnect must not block or panic.
	publishDemoRun(s)
}

// TestCloseJustStarted closes the monitor right after Start, before its
// serving goroutine may have run: Close must not race that goroutine, and
// the address must refuse connections once Close returns.
func TestCloseJustStarted(t *testing.T) {
	for i := 0; i < 100; i++ {
		s := New()
		addr, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Fatalf("Close %d left %s listening", i, addr)
		}
	}
}
