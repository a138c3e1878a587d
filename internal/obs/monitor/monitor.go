// Package monitor is the live telemetry plane: a read-only HTTP server any
// run, deployment or campaign publishes into. It implements obs.Publisher:
// runs push structured events, the server pulls their metrics by
// snapshotting each running run's live registry when /metrics or /runs/{id}
// is read, and it serves them as a Prometheus /metrics exposition, JSON
// /runs status, and an /events SSE stream, with net/http/pprof mounted
// under /debug/ for the process itself.
//
// The design follows the Rayhunter monitoring API split: the server only
// observes — it cannot start, stop or reconfigure a run. All simulation
// state stays timestamped in virtual time, so attaching a monitor never
// perturbs a seeded run; only campaign ETA and run bookkeeping use the wall
// clock, and those never feed back into the simulation.
package monitor

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"cityhunter/internal/obs"
)

// DefaultEventCap bounds each run's event ring in the monitor.
const DefaultEventCap = 2048

// Server is the telemetry plane. Create with New, attach to runs as an
// obs.Publisher, and expose over HTTP with Start (or mount Handler
// yourself). The zero value is not usable.
type Server struct {
	self *obs.Registry // monitor self-metrics, exported unlabelled

	mu       sync.Mutex
	runs     map[string]*runState
	order    []string // run IDs in registration order
	seq      int
	active   int // runs started and not yet finished
	attached []attachedRegistry

	subMu  sync.Mutex
	subs   map[int]*subscriber
	subSeq int

	httpMu sync.Mutex
	ln     net.Listener
	hs     *http.Server

	mRunsStarted  *obs.Counter
	mEventsSeen   *obs.Counter
	mSSEDropped   *obs.Counter
	gRunsActive   *obs.Gauge
	gSubscribers  *obs.Gauge
	mScrapesTotal *obs.Counter
}

// New returns an empty monitor server.
func New() *Server {
	self := obs.NewRegistry()
	return &Server{
		self:          self,
		runs:          make(map[string]*runState),
		subs:          make(map[int]*subscriber),
		mRunsStarted:  self.Counter("monitor_runs_started"),
		mEventsSeen:   self.Counter("monitor_events_received"),
		mSSEDropped:   self.Counter("monitor_sse_dropped_events"),
		gRunsActive:   self.Gauge("monitor_runs_active"),
		gSubscribers:  self.Gauge("monitor_subscribers"),
		mScrapesTotal: self.Counter("monitor_scrapes"),
	}
}

// attachedRegistry is an external metrics registry merged into /metrics.
type attachedRegistry struct {
	reg    *obs.Registry
	labels []string
}

// Attach merges an external registry into every /metrics scrape, stamped
// with the given identity label pairs (key, value, key, value, …). Unlike
// StartRun it carries no lifecycle — the job server uses it to expose its
// own job counters beside the run telemetry. Safe for concurrent use.
func (s *Server) Attach(reg *obs.Registry, labels ...string) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	s.attached = append(s.attached, attachedRegistry{reg: reg, labels: labels})
	s.mu.Unlock()
}

// runState is one registered run. Each run gets its own mutex and event
// ring, so concurrent campaign workers publishing different runs never
// contend on a shared lock — only the scrape path walks all runs.
type runState struct {
	srv  *Server
	id   string
	info obs.RunInfo

	startedWall time.Time

	mu           sync.Mutex
	status       string // "running", "finished", "failed"
	errMsg       string
	at           time.Duration // virtual time of the latest event
	reg          *obs.Registry // the run's live registry; nil once finished
	final        obs.Snapshot  // reg as of FinishRun
	firstAssoc   bool
	finishedWall time.Time
	events       *obs.Journal // the run's event ring, read by HTTP under mu
}

var _ obs.Publisher = (*Server)(nil)
var _ obs.RunPublisher = (*runState)(nil)

// StartRun implements obs.Publisher. Safe for concurrent use.
func (s *Server) StartRun(info obs.RunInfo) obs.RunPublisher {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("run-%d", s.seq)
	rs := &runState{
		srv:         s,
		id:          id,
		info:        info,
		startedWall: time.Now(),
		status:      "running",
		reg:         info.Metrics,
		events:      obs.NewJournal(DefaultEventCap),
	}
	s.runs[id] = rs
	s.order = append(s.order, id)
	s.active++
	s.gRunsActive.Set(float64(s.active))
	s.mu.Unlock()

	s.mRunsStarted.Inc()
	rs.record(obs.Event{Type: obs.EventRunStart, Actor: info.Label,
		Detail: fmt.Sprintf("kind=%s", info.Kind)})
	return rs
}

// PublishEvent implements obs.RunPublisher. The monitor synthesises a
// first-association event per run from the association stream — the
// paper's time-to-first-victim measure, surfaced live.
func (rs *runState) PublishEvent(ev obs.Event) {
	rs.record(ev)
	if ev.Type == obs.EventAssociation {
		rs.mu.Lock()
		first := !rs.firstAssoc
		rs.firstAssoc = true
		rs.mu.Unlock()
		if first {
			rs.record(obs.Event{At: ev.At, Type: obs.EventFirstAssociation,
				Actor: ev.Actor, Detail: "first association of " + rs.id})
		}
	}
}

// FinishRun implements obs.RunPublisher. It freezes the run's metrics at
// their final values and drops the registry, so later writes to it never
// show. Only the first call counts; a repeated FinishRun is ignored.
func (rs *runState) FinishRun(at time.Duration, err error) {
	rs.mu.Lock()
	if rs.status != "running" {
		rs.mu.Unlock()
		return
	}
	rs.final = rs.reg.Snapshot()
	rs.reg = nil
	rs.at = at
	rs.finishedWall = time.Now()
	detail := "ok"
	if err != nil {
		rs.status = "failed"
		rs.errMsg = err.Error()
		detail = "error: " + rs.errMsg
	} else {
		rs.status = "finished"
	}
	rs.mu.Unlock()

	rs.record(obs.Event{At: at, Type: obs.EventRunFinish, Actor: rs.info.Label, Detail: detail})
	s := rs.srv
	s.mu.Lock()
	s.active--
	s.gRunsActive.Set(float64(s.active))
	s.mu.Unlock()
}

// metrics returns the run's metrics: a snapshot of its live registry while
// it runs, the values frozen at FinishRun after.
func (rs *runState) metrics() obs.Snapshot {
	rs.mu.Lock()
	reg, final := rs.reg, rs.final
	rs.mu.Unlock()
	if reg != nil {
		return reg.Snapshot()
	}
	return final
}

// record journals the event in the run's ring, tracks the latest virtual
// time, and fans it out to SSE subscribers.
func (rs *runState) record(ev obs.Event) {
	rs.mu.Lock()
	rs.events.Record(ev.At, ev.Type, ev.Actor, ev.Detail)
	if ev.At > rs.at {
		rs.at = ev.At
	}
	rs.mu.Unlock()
	rs.srv.mEventsSeen.Inc()
	rs.srv.broadcast(rs.id, ev)
}

// identityLabels flattens a run's identity into label pairs for Relabel:
// the run ID always, plus whatever RunInfo.Labels carries, in sorted key
// order for determinism.
func (rs *runState) identityLabels() []string {
	pairs := []string{"run", rs.id}
	keys := make([]string, 0, len(rs.info.Labels))
	for k := range rs.info.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pairs = append(pairs, k, rs.info.Labels[k])
	}
	return pairs
}

// gather merges every run's metrics (stamped with run identity labels),
// the attached registries and the monitor's self-metrics into one
// exposition-ready snapshot. A running run's registry is snapshotted here,
// at scrape time, while the run keeps writing to it: each value is one
// atomic read, but together they are not a barrier-consistent cut — a
// deployment's site groups may stand at different virtual times.
func (s *Server) gather() obs.Snapshot {
	s.mu.Lock()
	states := make([]*runState, 0, len(s.order))
	for _, id := range s.order {
		states = append(states, s.runs[id])
	}
	attached := make([]attachedRegistry, len(s.attached))
	copy(attached, s.attached)
	s.mu.Unlock()

	var merged obs.Snapshot
	for _, rs := range states {
		snap := rs.metrics()
		if len(snap) == 0 {
			continue
		}
		merged = append(merged, snap.Relabel(rs.identityLabels()...)...)
	}
	for _, a := range attached {
		snap := a.reg.Snapshot()
		if len(a.labels) > 0 {
			snap = snap.Relabel(a.labels...)
		}
		merged = append(merged, snap...)
	}
	merged = append(merged, s.self.Snapshot()...)
	merged.Sort()
	return merged
}

// runStatus is the JSON shape served by /runs and /runs/{id}.
type runStatus struct {
	ID             string            `json:"id"`
	Kind           string            `json:"kind"`
	Label          string            `json:"label,omitempty"`
	Labels         map[string]string `json:"labels,omitempty"`
	Status         string            `json:"status"`
	Error          string            `json:"error,omitempty"`
	StartedWall    time.Time         `json:"started_wall"`
	FinishedWall   *time.Time        `json:"finished_wall,omitempty"`
	VirtualSeconds float64           `json:"virtual_seconds"`
	Events         int               `json:"events"`
	EventsDropped  int               `json:"events_dropped,omitempty"`
}

// status renders the run's summary.
func (rs *runState) statusJSON() runStatus {
	rs.mu.Lock()
	st := runStatus{
		ID:             rs.id,
		Kind:           rs.info.Kind,
		Label:          rs.info.Label,
		Labels:         rs.info.Labels,
		Status:         rs.status,
		Error:          rs.errMsg,
		StartedWall:    rs.startedWall,
		VirtualSeconds: rs.at.Seconds(),
	}
	if !rs.finishedWall.IsZero() {
		t := rs.finishedWall
		st.FinishedWall = &t
	}
	st.Events = rs.events.Len()
	st.EventsDropped = rs.events.Dropped()
	rs.mu.Unlock()
	return st
}

// Start listens on addr and serves the monitor endpoints in a background
// goroutine. It returns the bound address ("127.0.0.1:43781"), which
// matters when addr requests an ephemeral port (":0"). Call Close to shut
// the listener down.
func (s *Server) Start(addr string) (string, error) {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.ln != nil {
		return "", errors.New("monitor: already started on " + s.ln.Addr().String())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hs = &http.Server{Handler: s.Handler()}
	go func() { _ = s.hs.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the HTTP listener and disconnects every SSE subscriber. Runs
// already registered keep publishing into the server's state harmlessly.
func (s *Server) Close() error {
	s.httpMu.Lock()
	hs := s.hs
	s.ln, s.hs = nil, nil
	s.httpMu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Close()
}
