package campaign

import (
	"fmt"
	"sync"
	"time"

	"cityhunter/internal/obs"
)

// campaignFeed is the pool's own presence on a live monitor: one
// "campaign" run whose registry carries the progress gauges, updated as
// specs start and finish and read by the monitor when it is scraped.
// Campaign progress is wall-clock territory — worker scheduling is
// nondeterministic by design — so unlike the per-run feeds its timestamps
// come from time.Since, never the virtual clock. None of it feeds back
// into any simulation.
type campaignFeed struct {
	rp      obs.RunPublisher
	start   time.Time
	total   int
	workers int

	mu       sync.Mutex
	running  int
	wallSum  time.Duration // total wall time of finished specs
	finished int           // specs counted in wallSum

	gTotal   *obs.Gauge
	gDone    *obs.Gauge
	gRunning *obs.Gauge
	gFailed  *obs.Gauge
	gETA     *obs.Gauge
	hSpec    *obs.Histogram
}

// startCampaignFeed registers the campaign with the pool's publisher.
// Returns nil (a safe no-op handle) when no publisher is configured.
func startCampaignFeed(p Pool, total, workers int) *campaignFeed {
	if p.Publisher == nil {
		return nil
	}
	label := p.Label
	if label == "" {
		label = fmt.Sprintf("campaign (%d specs)", total)
	}
	reg := obs.NewRegistry()
	f := &campaignFeed{
		start:    time.Now(),
		total:    total,
		gTotal:   reg.Gauge("campaign_specs_total"),
		gDone:    reg.Gauge("campaign_specs_done"),
		gRunning: reg.Gauge("campaign_specs_running"),
		gFailed:  reg.Gauge("campaign_specs_failed"),
		gETA:     reg.Gauge("campaign_eta_seconds"),
		hSpec:    reg.Histogram("campaign_spec_wall_seconds", []float64{1, 5, 15, 60, 300, 1800}),
	}
	f.workers = workers
	f.gTotal.Set(float64(total))
	labels := map[string]string{}
	for k, v := range p.Labels {
		labels[k] = v
	}
	labels["workers"] = fmt.Sprintf("%d", workers)
	f.rp = p.Publisher.StartRun(obs.RunInfo{
		Kind:    "campaign",
		Label:   label,
		Labels:  labels,
		Metrics: reg,
	})
	return f
}

// specStarted bumps the running gauge. Nil-safe.
func (f *campaignFeed) specStarted() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.running++
	running := f.running
	f.mu.Unlock()
	f.gRunning.Set(float64(running))
}

// specFinished folds one finished spec into the gauges, re-estimates the
// ETA from the mean completed-spec wall time and emits a spec-done event.
// Nil-safe.
func (f *campaignFeed) specFinished(index int, name string, wall time.Duration, err error, done, failed int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.running--
	running := f.running
	f.wallSum += wall
	f.finished++
	mean := f.wallSum / time.Duration(f.finished)
	f.mu.Unlock()

	f.gRunning.Set(float64(running))
	f.gDone.Set(float64(done))
	f.gFailed.Set(float64(failed))
	f.hSpec.Observe(wall.Seconds())
	remaining := f.total - done
	eta := 0.0
	if remaining > 0 && f.workers > 0 {
		// Remaining specs drain through the pool roughly remaining/workers
		// deep, each costing about the mean observed wall time.
		batches := (remaining + f.workers - 1) / f.workers
		eta = (time.Duration(batches) * mean).Seconds()
	}
	f.gETA.Set(eta)

	if name == "" {
		name = fmt.Sprintf("run %d", index)
	}
	detail := fmt.Sprintf("%d/%d done in %v", done, f.total, wall.Round(time.Millisecond))
	if err != nil {
		detail += "; error: " + err.Error()
	}
	f.rp.PublishEvent(obs.Event{At: time.Since(f.start), Type: obs.EventSpecDone,
		Actor: name, Detail: detail})
}

// specSkipped counts a spec served from a durable result store: it bumps
// the done gauge and emits a spec-done event flagged "cached", but never
// touches the running gauge, the wall-time histogram or the ETA mean —
// cached specs cost no wall time and must not skew the estimate. Nil-safe.
func (f *campaignFeed) specSkipped(index int, name string, done int) {
	if f == nil {
		return
	}
	f.gDone.Set(float64(done))
	if name == "" {
		name = fmt.Sprintf("run %d", index)
	}
	f.rp.PublishEvent(obs.Event{At: time.Since(f.start), Type: obs.EventSpecDone,
		Actor: name, Detail: fmt.Sprintf("%d/%d done (cached)", done, f.total)})
}

// finish closes the campaign on the monitor. Nil-safe.
func (f *campaignFeed) finish(err error) {
	if f == nil {
		return
	}
	f.rp.FinishRun(time.Since(f.start), err)
}
