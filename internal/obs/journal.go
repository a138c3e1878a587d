package obs

import (
	"sort"
	"sync"
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

// Cap returns the ring capacity.
func (j *Journal) Cap() int {
	if j == nil {
		return 0
	}
	return j.capacity
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

// JournalShard is one independently locked ring journal inside a
// ShardedJournal. Each concurrent producer (a campaign worker's run, say)
// writes only to its own shard, so producers never contend on a shared
// lock; readers merge shards on demand. Methods on a nil *JournalShard are
// no-ops.
type JournalShard struct {
	mu sync.Mutex
	j  *Journal
}

// Record appends one event to the shard.
func (s *JournalShard) Record(at time.Duration, typ, actor, detail string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.j.Record(at, typ, actor, detail)
	s.mu.Unlock()
}

// Events returns the shard's stored events in insertion order.
func (s *JournalShard) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Events()
}

// Len returns the number of stored events.
func (s *JournalShard) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Len()
}

// Dropped returns how many events the shard overwrote.
func (s *JournalShard) Dropped() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Dropped()
}

// ShardedJournal is a journal split into per-producer shards. NewShard is
// the only cross-shard synchronisation point; recording stays on the
// producer's private lock.
type ShardedJournal struct {
	mu     sync.Mutex
	shards []*JournalShard
}

// NewShardedJournal returns an empty sharded journal.
func NewShardedJournal() *ShardedJournal {
	return &ShardedJournal{}
}

// NewShard adds a shard bounded to capacity events (<= 0 selects
// DefaultJournalCap) and returns it for exclusive use by one producer.
func (sj *ShardedJournal) NewShard(capacity int) *JournalShard {
	s := &JournalShard{j: NewJournal(capacity)}
	sj.mu.Lock()
	sj.shards = append(sj.shards, s)
	sj.mu.Unlock()
	return s
}

// Events merges every shard's events, ordered by virtual timestamp with a
// stable tie-break on shard creation order.
func (sj *ShardedJournal) Events() []Event {
	if sj == nil {
		return nil
	}
	sj.mu.Lock()
	shards := make([]*JournalShard, len(sj.shards))
	copy(shards, sj.shards)
	sj.mu.Unlock()
	var out []Event
	for _, s := range shards {
		out = append(out, s.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Dropped sums the overwrite counts across shards.
func (sj *ShardedJournal) Dropped() int {
	if sj == nil {
		return 0
	}
	sj.mu.Lock()
	shards := make([]*JournalShard, len(sj.shards))
	copy(shards, sj.shards)
	sj.mu.Unlock()
	total := 0
	for _, s := range shards {
		total += s.Dropped()
	}
	return total
}

// Len sums the stored-event counts across shards.
func (sj *ShardedJournal) Len() int {
	if sj == nil {
		return 0
	}
	sj.mu.Lock()
	shards := make([]*JournalShard, len(sj.shards))
	copy(shards, sj.shards)
	sj.mu.Unlock()
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	return total
}
