package scenario

import (
	"fmt"
	"time"

	"cityhunter/internal/obs"
)

// DefaultPublishEvery is the virtual-time cadence between published metric
// snapshots when Config.PublishEvery is zero. Five virtual seconds keeps a
// one-hour run under a thousand snapshots while the time-series the paper
// plots (hit counts, association counts) stay smooth.
const DefaultPublishEvery = 5 * time.Second

// runFeed is a registered run's publisher handle. The caller arms tick as
// a coordinator global event every feed.every of virtual time. A tick
// only reads the registry — it consumes no randomness and mutates no
// simulation state, so a published run is event-for-event identical to an
// unpublished one.
type runFeed struct {
	rp      obs.RunPublisher
	reg     *obs.Registry
	every   time.Duration
	buffers []*eventBuffer
}

// eventBuffer holds one site group's live events until the next tick. A
// run publishes from a single goroutine, and the groups run on several, so
// the feed forwards every group's events at a barrier, in group order.
type eventBuffer struct {
	obs.RunPublisher
	events []obs.Event
}

func (b *eventBuffer) PublishEvent(ev obs.Event) { b.events = append(b.events, ev) }

// startFeed registers the run with the configured publisher (nil-safe: no
// publisher, no feed), points rt's live events at it, and announces the
// sites. One site publishes as kind "run"; more publish as a "deployment"
// labelled with its knowledge plane and site count.
func startFeed(rt *obs.Runtime, cfg Config, knowledge KnowledgePlane, slot int, sites []*site) *runFeed {
	if cfg.Publisher == nil {
		return nil
	}
	labels := map[string]string{}
	for k, v := range cfg.RunLabels {
		labels[k] = v
	}
	labels["attack"] = cfg.Attack.String()
	labels["seed"] = fmt.Sprintf("%d", cfg.Seed)
	kind, label := "run", fmt.Sprintf("%s/%s/slot%d", sites[0].venue.Name, cfg.Attack, slot)
	if len(sites) > 1 {
		kind, label = "deployment", fmt.Sprintf("%d sites/%s/slot%d", len(sites), cfg.Attack, slot)
		labels["knowledge"] = knowledge.String()
		labels["sites"] = fmt.Sprintf("%d", len(sites))
	}
	if cfg.RunLabel != "" {
		label = cfg.RunLabel
	}
	rp := cfg.Publisher.StartRun(obs.RunInfo{Kind: kind, Label: label, Labels: labels})
	rt.Publish = rp
	for _, st := range sites {
		rt.Event(0, obs.EventSiteDeploy, st.venue.Name,
			fmt.Sprintf("attacker %s at (%.0f,%.0f)", st.id.attackerMAC, st.venue.Position.X, st.venue.Position.Y))
	}
	every := cfg.PublishEvery
	if every <= 0 {
		every = DefaultPublishEvery
	}
	return &runFeed{rp: rp, reg: rt.Metrics, every: every}
}

// buffer routes rt's live events through an eventBuffer the ticks drain.
func (f *runFeed) buffer(rt *obs.Runtime) {
	b := &eventBuffer{RunPublisher: f.rp}
	rt.Publish = b
	f.buffers = append(f.buffers, b)
}

// tick forwards the buffered events and publishes a snapshot as of now.
func (f *runFeed) tick(now time.Duration) {
	for _, b := range f.buffers {
		for _, ev := range b.events {
			f.rp.PublishEvent(ev)
		}
		b.events = b.events[:0]
	}
	f.rp.PublishSnapshot(now, f.reg.Snapshot())
}

// finish publishes the end-of-run snapshot — which now includes the
// runner-level tallies emitRunTelemetry just recorded — and closes the run
// on the monitor. Nil-safe.
func (f *runFeed) finish(simulated time.Duration, runErr error) {
	if f == nil {
		return
	}
	f.tick(simulated)
	f.rp.FinishRun(simulated, runErr)
}
