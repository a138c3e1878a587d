package serve

import (
	"context"
	"sync"
	"time"

	"cityhunter/internal/campaign"
	"cityhunter/internal/plan"
)

// Job states. queued and running are live; the other four are terminal.
// checkpointed means a graceful drain stopped the job mid-campaign:
// finished specs are durable in the store and resubmitting the same plan
// resumes from them.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateFinished     = "finished"
	StateFailed       = "failed"
	StateCancelled    = "cancelled"
	StateCheckpointed = "checkpointed"
)

// jobEvent is one entry in a job's event log, streamed over SSE.
type jobEvent struct {
	At     time.Time `json:"at"`
	Type   string    `json:"type"`
	Detail string    `json:"detail,omitempty"`
}

// jobEventBuffer bounds each SSE subscriber's channel; job event rates
// are tiny (a handful per spec), so overflow means a truly stuck client.
const jobEventBuffer = 256

// job is one submitted plan: its specs (from plan.RunSpecs), its identity
// in the result store, its lifecycle state and event log.
type job struct {
	id        string
	hash      string
	kind      plan.Kind
	label     string
	seed      int64
	workers   int
	specs     []campaign.Spec
	submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	errMsg   string
	started  time.Time
	finished time.Time
	done     int
	cached   int
	ran      int
	failed   int
	events   []jobEvent
	subs     map[int]chan jobEvent
	subSeq   int
	closed   bool
}

// JobStatus is the JSON shape of a job on the API.
type JobStatus struct {
	ID        string     `json:"id"`
	Hash      string     `json:"hash"`
	Kind      string     `json:"kind"`
	Label     string     `json:"label,omitempty"`
	State     string     `json:"state"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Seed      int64      `json:"seed"`
	Workers   int        `json:"workers"`
	// Spec counters: Total = Done + remaining; Done = Cached + Run +
	// Failed. Cached counts specs served from the result store — the
	// resume verification hook.
	SpecsTotal  int `json:"specsTotal"`
	SpecsDone   int `json:"specsDone"`
	SpecsCached int `json:"specsCached"`
	SpecsRun    int `json:"specsRun"`
	SpecsFailed int `json:"specsFailed"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Hash:        j.hash,
		Kind:        string(j.kind),
		Label:       j.label,
		State:       j.state,
		Error:       j.errMsg,
		Submitted:   j.submitted,
		Seed:        j.seed,
		Workers:     j.workers,
		SpecsTotal:  len(j.specs),
		SpecsDone:   j.done,
		SpecsCached: j.cached,
		SpecsRun:    j.ran,
		SpecsFailed: j.failed,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// terminal reports whether the job reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.closed
}

// event appends to the log and fans out to subscribers. Full subscriber
// channels drop (the log itself is complete; SSE is best-effort live).
// Callers hold j.mu.
func (j *job) eventLocked(typ, detail string) {
	ev := jobEvent{At: time.Now(), Type: typ, Detail: detail}
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// terminate moves the job to a terminal state, logs the closing event and
// closes every subscriber channel (ending their SSE streams after the
// final event drains).
func (j *job) terminate(state, errMsg, detail string) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.closed = true
	j.eventLocked(state, detail)
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.cancel()
	j.mu.Unlock()
}

// start marks the job running.
func (j *job) start() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.eventLocked("started", "")
	j.mu.Unlock()
}

// subscribe registers an SSE client: it returns a snapshot of the event
// log so far, a live channel (nil when the job is already terminal — the
// replay is the whole story), and a cancel func.
func (j *job) subscribe() ([]jobEvent, chan jobEvent, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := make([]jobEvent, len(j.events))
	copy(replay, j.events)
	if j.closed {
		return replay, nil, func() {}
	}
	ch := make(chan jobEvent, jobEventBuffer)
	j.subSeq++
	id := j.subSeq
	j.subs[id] = ch
	return replay, ch, func() {
		j.mu.Lock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
		}
		j.mu.Unlock()
	}
}
