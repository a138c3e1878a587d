package scenario

import (
	"fmt"
	"time"

	"cityhunter/internal/obs"
)

// DefaultPublishEvery is the virtual-time cadence at which a run forwards
// its buffered live events to the publisher when Config.PublishEvery is
// zero. Metrics are not on this cadence: the publisher reads the run's
// registry whenever it is scraped.
const DefaultPublishEvery = 5 * time.Second

// runFeed is a registered run's publisher handle. The caller arms tick as
// a coordinator global event every feed.every of virtual time. A tick
// only forwards events — it consumes no randomness and mutates no
// simulation state, so a published run is event-for-event identical to an
// unpublished one.
type runFeed struct {
	rp      obs.RunPublisher
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

// startFeed registers the run and its registry with the configured
// publisher (nil-safe: no publisher, no feed), points rt's live events at
// it, and announces the sites. One site publishes as kind "run"; more
// publish as a "deployment" labelled with its knowledge plane and site
// count.
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
	rp := cfg.Publisher.StartRun(obs.RunInfo{Kind: kind, Label: label, Labels: labels, Metrics: rt.Metrics})
	rt.Publish = rp
	for _, st := range sites {
		rt.Event(0, obs.EventSiteDeploy, st.venue.Name,
			fmt.Sprintf("attacker %s at (%.0f,%.0f)", st.id.attackerMAC, st.venue.Position.X, st.venue.Position.Y))
	}
	every := cfg.PublishEvery
	if every <= 0 {
		every = DefaultPublishEvery
	}
	return &runFeed{rp: rp, every: every}
}

// buffer routes rt's live events through an eventBuffer the ticks drain.
func (f *runFeed) buffer(rt *obs.Runtime) {
	b := &eventBuffer{RunPublisher: f.rp}
	rt.Publish = b
	f.buffers = append(f.buffers, b)
}

// tick forwards the buffered events, group by group.
func (f *runFeed) tick() {
	for _, b := range f.buffers {
		for _, ev := range b.events {
			f.rp.PublishEvent(ev)
		}
		b.events = b.events[:0]
	}
}

// finish forwards the last events and closes the run on the monitor, whose
// final read of the registry then includes the runner-level tallies
// emitRunTelemetry just recorded. Nil-safe.
func (f *runFeed) finish(simulated time.Duration, runErr error) {
	if f == nil {
		return
	}
	f.tick()
	f.rp.FinishRun(simulated, runErr)
}
