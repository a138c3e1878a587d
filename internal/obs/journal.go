package obs

import (
	"sort"
	"time"
)

// Journal event types. Components use these constants so analysis code can
// filter without string guessing.
const (
	// EventAdaptation marks a buffer-boundary move in the City-Hunter
	// engine.
	EventAdaptation = "adaptation"
	// EventGhostHit marks a capture served from a ghost list.
	EventGhostHit = "ghost-hit"
	// EventAssociation marks a completed evil-twin association.
	EventAssociation = "association"
	// EventDeauthSweep marks one spoofed-deauthentication broadcast sweep.
	EventDeauthSweep = "deauth-sweep"
	// EventFrameLoss marks a unicast frame lost to the loss model.
	EventFrameLoss = "frame-loss"
	// EventTraceDrop marks the frame capture hitting its entry cap.
	EventTraceDrop = "trace-drop"
	// EventRunStart marks a run registering with a publisher.
	EventRunStart = "run-start"
	// EventRunFinish marks a run completing (Detail carries the error, if
	// any).
	EventRunFinish = "run-finish"
	// EventSiteDeploy marks an attacker site coming online.
	EventSiteDeploy = "site-deploy"
	// EventPromotion marks a far-field pedestrian promoted to a full
	// client.
	EventPromotion = "promotion"
	// EventDemotion marks a promoted pedestrian suspended back to the
	// far-field tier.
	EventDemotion = "demotion"
	// EventFirstAssociation marks the first evil-twin association of a run
	// (synthesised by the monitor from the association stream).
	EventFirstAssociation = "first-association"
	// EventSpecDone marks one campaign spec finishing (Detail carries the
	// outcome).
	EventSpecDone = "spec-done"
)

// Event is one structured, virtually-timestamped journal record.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration `json:"at"`
	// Type is one of the Event* constants (components may add their own).
	Type string `json:"type"`
	// Actor identifies the subject — a MAC address or component name.
	Actor string `json:"actor,omitempty"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// DefaultJournalCap bounds the flight recorder when no capacity is given.
const DefaultJournalCap = 8192

// Journal is the run flight recorder: a ring buffer of Events that keeps
// the most recent capacity records and counts what it had to overwrite, so
// a truncated journal is always distinguishable from a complete one. The
// ring grows as events arrive and wraps only once it holds capacity of
// them, so a run that logs a few dozen events never pays for the bound.
// Methods on a nil *Journal are no-ops.
type Journal struct {
	buf      []Event // stored events; the ring once len(buf) == capacity
	capacity int
	start    int // index of the oldest stored event
	dropped  int // events overwritten by newer ones

	// Overflow, when set, is incremented once per overwritten event so the
	// flight recorder's truncation is visible on a live /metrics scrape
	// instead of only in the post-run Result.
	Overflow *Counter
}

// NewJournal returns a journal bounded to capacity events; capacity <= 0
// selects DefaultJournalCap.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{capacity: capacity}
}

// Record appends one event, overwriting the oldest when full.
func (j *Journal) Record(at time.Duration, typ, actor, detail string) {
	if j == nil {
		return
	}
	e := Event{At: at, Type: typ, Actor: actor, Detail: detail}
	if len(j.buf) < j.capacity {
		j.buf = append(j.buf, e)
		return
	}
	j.buf[j.start] = e
	j.start = (j.start + 1) % len(j.buf)
	j.dropped++
	j.Overflow.Inc()
}

// Len returns the number of stored events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	return len(j.buf)
}

// Dropped returns how many events were overwritten by newer ones.
func (j *Journal) Dropped() int {
	if j == nil {
		return 0
	}
	return j.dropped
}

// Events returns the stored events in chronological order.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, len(j.buf))
	for i := range out {
		out[i] = j.buf[(j.start+i)%len(j.buf)]
	}
	return out
}

// MergeJournals folds several journals into one, ordered by virtual time
// with argument order breaking ties. The result keeps the newest capacity
// events (capacity <= 0 selects DefaultJournalCap) and counts as dropped
// both what the inputs overwrote and what the merge leaves out, so its
// Dropped is always events recorded minus events kept. A single journal is
// returned as is, and so is a nil first one (the flight recorder is off).
func MergeJournals(capacity int, journals ...*Journal) *Journal {
	if len(journals) == 1 || journals[0] == nil {
		return journals[0]
	}
	var all []Event
	merged := NewJournal(capacity)
	for _, j := range journals {
		all = append(all, j.Events()...)
		merged.dropped += j.Dropped()
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].At < all[b].At })
	if over := len(all) - merged.capacity; over > 0 {
		merged.dropped += over
		all = all[over:]
	}
	merged.buf = append(merged.buf, all...)
	return merged
}
