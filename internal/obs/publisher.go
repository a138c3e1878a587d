package obs

import "time"

// RunInfo identifies a run to a Publisher: what kind of work it is, the
// labels the monitor should stamp on everything the run reports, and the
// registry the monitor reads the run's metrics from.
type RunInfo struct {
	// Kind classifies the run: "run", "deployment" or "campaign".
	Kind string `json:"kind"`
	// Label is a human-readable name ("canteen/City-Hunter/seed1").
	Label string `json:"label,omitempty"`
	// Labels are extra identity pairs merged into every published metric
	// (attack strategy, venue, seed, ...).
	Labels map[string]string `json:"labels,omitempty"`
	// Metrics is the run's live registry. A publisher pulls metrics from
	// it: while the run is running it may snapshot the registry at any
	// moment (every handle is safe for concurrent use), and at FinishRun
	// the registry holds the run's final values. A publisher must not
	// write to it. Nil means the run has no metrics.
	Metrics *Registry `json:"-"`
}

// Publisher receives live telemetry from runs. Implementations must be safe
// for concurrent StartRun calls: campaign workers register their runs in
// parallel. The monitor server is the canonical implementation; tests may
// supply their own.
type Publisher interface {
	// StartRun registers a new run and returns the sink it publishes into.
	StartRun(info RunInfo) RunPublisher
}

// RunPublisher is one run's telemetry sink. Metrics are not pushed through
// it: the publisher reads them from RunInfo.Metrics when it wants them. A
// run publishes from a single goroutine, but distinct runs publish
// concurrently, so implementations keep their state per run.
type RunPublisher interface {
	// PublishEvent delivers one structured run event.
	PublishEvent(ev Event)
	// FinishRun marks the run complete; err is nil on success. The run's
	// registry holds its final values by then and the run writes no more
	// to it, so a publisher that keeps metrics past the run snapshots it
	// here.
	FinishRun(at time.Duration, err error)
}
