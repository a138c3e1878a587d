package campaign_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"cityhunter"
)

// recPublisher implements cityhunter.TelemetryPublisher, recording what the
// campaign pool streams and, at each run's finish, the final values of the
// registry the run registered.
type recPublisher struct {
	mu   sync.Mutex
	runs []*recRun
}

type recRun struct {
	mu       sync.Mutex
	info     cityhunter.TelemetryRunInfo
	final    cityhunter.MetricsSnapshot
	events   []cityhunter.JournalEvent
	finished bool
	err      error
}

func (p *recPublisher) StartRun(info cityhunter.TelemetryRunInfo) cityhunter.TelemetryRun {
	r := &recRun{info: info}
	p.mu.Lock()
	p.runs = append(p.runs, r)
	p.mu.Unlock()
	return r
}

func (r *recRun) PublishEvent(ev cityhunter.JournalEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *recRun) FinishRun(at time.Duration, err error) {
	r.mu.Lock()
	r.final = r.info.Metrics.Snapshot()
	r.finished = true
	r.err = err
	r.mu.Unlock()
}

// TestCampaignPublisher drives a pool with a publisher attached and checks
// the campaign feed: one "campaign" run carrying the progress gauges and a
// spec-done event per spec, plus one propagated "run" feed per spec.
func TestCampaignPublisher(t *testing.T) {
	w := testWorld(t)
	specs := quickSpecs(3)
	pub := &recPublisher{}
	out, err := w.RunCampaign(context.Background(), specs, cityhunter.CampaignPool{
		Workers:   2,
		Publisher: pub,
		Label:     "gauge-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != len(specs) {
		t.Fatalf("completed %d, want %d", out.Completed, len(specs))
	}

	pub.mu.Lock()
	runs := append([]*recRun(nil), pub.runs...)
	pub.mu.Unlock()
	if len(runs) != 1+len(specs) {
		t.Fatalf("publisher saw %d runs, want 1 campaign + %d specs", len(runs), len(specs))
	}

	camp := runs[0]
	camp.mu.Lock()
	defer camp.mu.Unlock()
	if camp.info.Kind != "campaign" || camp.info.Label != "gauge-test" {
		t.Errorf("campaign info = %+v", camp.info)
	}
	for name, want := range map[string]float64{
		"campaign_specs_total":   3,
		"campaign_specs_done":    3,
		"campaign_specs_running": 0,
		"campaign_specs_failed":  0,
		"campaign_eta_seconds":   0,
	} {
		if got := camp.final.Value(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if p, ok := camp.final.Get("campaign_spec_wall_seconds"); !ok || p.Count != 3 {
		t.Errorf("spec wall histogram = %+v, want 3 observations", p)
	}
	specDone := 0
	for _, ev := range camp.events {
		if ev.Type == "spec-done" {
			specDone++
		}
	}
	if specDone != len(specs) {
		t.Errorf("spec-done events = %d, want %d", specDone, len(specs))
	}
	if !camp.finished || camp.err != nil {
		t.Errorf("campaign finish = (%v, %v), want clean", camp.finished, camp.err)
	}

	for _, r := range runs[1:] {
		r.mu.Lock()
		if r.info.Kind != "run" {
			t.Errorf("propagated run kind = %q, want run", r.info.Kind)
		}
		if !r.finished {
			t.Error("propagated run never finished")
		}
		if r.final.Value("sim_events_executed") <= 0 {
			t.Error("propagated run's final metrics lack sim_events_executed")
		}
		r.mu.Unlock()
	}
}
