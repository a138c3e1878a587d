package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"cityhunter/internal/obs"
)

// sseBuffer is each subscriber's channel depth. A subscriber that cannot
// drain fast enough loses events (counted in monitor_sse_dropped_events)
// rather than blocking the publishing run.
const sseBuffer = 256

// sseEvent is one wire event: the run's journal event plus the run ID so a
// stream across many runs stays attributable.
type sseEvent struct {
	Run string `json:"run"`
	obs.Event
}

// subscriber is one connected /events client.
type subscriber struct {
	ch  chan sseEvent
	run string // filter to one run ID; "" = all
}

// broadcast fans an event out to every subscriber without ever blocking
// the publisher: full channels drop.
func (s *Server) broadcast(runID string, ev obs.Event) {
	wire := sseEvent{Run: runID, Event: ev}
	s.subMu.Lock()
	for _, sub := range s.subs {
		if sub.run != "" && sub.run != runID {
			continue
		}
		select {
		case sub.ch <- wire:
		default:
			s.mSSEDropped.Inc()
		}
	}
	s.subMu.Unlock()
}

// subscribe registers an SSE client; the returned cancel must be called on
// disconnect.
func (s *Server) subscribe(run string) (*subscriber, func()) {
	sub := &subscriber{ch: make(chan sseEvent, sseBuffer), run: run}
	s.subMu.Lock()
	s.subSeq++
	id := s.subSeq
	s.subs[id] = sub
	n := len(s.subs)
	s.subMu.Unlock()
	s.gSubscribers.Set(float64(n))
	return sub, func() {
		s.subMu.Lock()
		delete(s.subs, id)
		n := len(s.subs)
		s.subMu.Unlock()
		s.gSubscribers.Set(float64(n))
	}
}

// readOnly guards a handler against non-read methods: the monitor's
// endpoints observe and never mutate, so anything but GET or HEAD is a 405
// with an Allow header.
func readOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// Handler returns the monitor's HTTP mux: read-only telemetry plus pprof.
// Mount it under your own server if you need TLS or auth in front.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", readOnly(s.handleIndex))
	mux.HandleFunc("/metrics", readOnly(s.handleMetrics))
	mux.HandleFunc("/runs", readOnly(s.handleRuns))
	mux.HandleFunc("/runs/", readOnly(s.handleRun))
	mux.HandleFunc("/events", readOnly(s.handleEvents))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "cityhunter monitor — read-only telemetry")
	fmt.Fprintln(w, "  /metrics      Prometheus text exposition")
	fmt.Fprintln(w, "  /runs         JSON run listing")
	fmt.Fprintln(w, "  /runs/{id}    one run: status, metrics, recent events")
	fmt.Fprintln(w, "  /events       SSE stream of run events (?run=run-N to filter)")
	fmt.Fprintln(w, "  /debug/pprof  process profiling")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mScrapesTotal.Inc()
	snap := s.gather()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	states := make([]*runState, 0, len(s.order))
	for _, id := range s.order {
		states = append(states, s.runs[id])
	}
	s.mu.Unlock()
	out := make([]runStatus, 0, len(states))
	for _, rs := range states {
		out = append(out, rs.statusJSON())
	}
	writeJSON(w, out)
}

// runDetail is /runs/{id}: the summary plus the run's metrics (a snapshot
// taken now while it runs, its final values after) and its journal tail.
type runDetail struct {
	runStatus
	Metrics      obs.Snapshot `json:"metrics,omitempty"`
	RecentEvents []obs.Event  `json:"recent_events,omitempty"`
}

const recentEventTail = 100

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/runs/")
	s.mu.Lock()
	rs := s.runs[id]
	s.mu.Unlock()
	if rs == nil {
		http.NotFound(w, r)
		return
	}
	d := runDetail{runStatus: rs.statusJSON(), Metrics: rs.metrics()}
	rs.mu.Lock()
	evs := rs.events.Events()
	rs.mu.Unlock()
	if len(evs) > recentEventTail {
		evs = evs[len(evs)-recentEventTail:]
	}
	d.RecentEvents = evs
	writeJSON(w, d)
}

// handleEvents serves the SSE stream. The handler returns — releasing its
// goroutine and subscriber slot — as soon as the client disconnects
// (request context done) or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub, cancel := s.subscribe(r.URL.Query().Get("run"))
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	fmt.Fprint(w, "retry: 2000\n\n")
	fl.Flush()

	n := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.ch:
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			n++
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", n, ev.Type, data)
			fl.Flush()
		}
	}
}
