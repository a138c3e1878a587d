// Package obs is the virtual-time observability layer: a metrics registry
// with deterministic snapshots, a bounded journal of structured run events
// (the flight recorder), and a Chrome/Perfetto trace-event exporter that
// renders client lifecycles, scan cycles and attacker reply batches as
// spans.
//
// The paper's field deployment understood attacker behaviour through packet
// captures and post-hoc counting; this package is the simulated equivalent
// of watching the run from the inside. Everything is timestamped in virtual
// time (the sim engine's clock), never the wall clock, so two runs with the
// same seed produce byte-identical metric dumps, journals and traces.
//
// Every type is nil-safe: methods on a nil *Registry, *Counter, *Journal or
// *Trace are no-ops, so instrumented hot paths pay a single predictable
// branch when observability is off.
package obs

import "time"

// Runtime bundles the sinks an instrumented component may feed. Any field
// may be nil to disable that sink; a nil *Runtime disables them all.
type Runtime struct {
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Journal is the flight recorder for structured run events.
	Journal *Journal
	// Trace collects Perfetto/Chrome trace spans.
	Trace *Trace
	// Publish, when set, streams selected events to a live monitor in
	// addition to the journal. Set by the scenario runner when a Publisher
	// is configured.
	Publish RunPublisher
}

// Event records one structured event in the journal and forwards it to the
// live publisher, if any. Components use this for the low-rate lifecycle
// events a monitor subscriber cares about (associations, deploys,
// promotions); high-rate noise like per-frame loss goes straight to the
// journal.
func (rt *Runtime) Event(at time.Duration, typ, actor, detail string) {
	if rt == nil {
		return
	}
	rt.Journal.Record(at, typ, actor, detail)
	if rt.Publish != nil {
		rt.Publish.PublishEvent(Event{At: at, Type: typ, Actor: actor, Detail: detail})
	}
}
