package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Trace accumulates Chrome trace-event records — the JSON format both
// chrome://tracing and ui.perfetto.dev open directly. Spans carry virtual
// timestamps in microseconds; tracks (one per client, one for the
// attacker) render as named threads. Methods on a nil *Trace are no-ops.
type Trace struct {
	events []traceEvent
	tracks []string // track i has tid i+1
}

// traceEvent is one record in the trace-event JSON schema.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracePID is the single process all tracks live under.
const tracePID = 1

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{}
}

// Track allocates a named track (rendered as a thread) and returns its tid.
// On a nil trace it returns 0, which other methods accept harmlessly.
func (t *Trace) Track(name string) int {
	if t == nil {
		return 0
	}
	t.tracks = append(t.tracks, name)
	return len(t.tracks)
}

// usec converts virtual time to trace microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Span records a complete ("X") event from start to end on the given track.
// args may be nil.
func (t *Trace) Span(cat, name string, tid int, start, end time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: usec(start), Dur: usec(end - start),
		PID: tracePID, TID: tid, Args: args,
	})
}

// Instant records a zero-duration ("i") event on the given track.
func (t *Trace) Instant(cat, name string, tid int, at time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "i",
		TS: usec(at), PID: tracePID, TID: tid, Args: args,
	})
}

// Append moves src's tracks and events onto the end of t, renumbering src's
// track ids past t's own, so traces recorded apart (one per deployment site
// group) merge into one. Either side may be nil.
func (t *Trace) Append(src *Trace) {
	if t == nil || src == nil {
		return
	}
	off := len(t.tracks)
	t.tracks = append(t.tracks, src.tracks...)
	for _, e := range src.events {
		if e.TID > 0 {
			e.TID += off
		}
		t.events = append(t.events, e)
	}
}

// Len returns the number of recorded events (excluding track metadata).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Categories returns the distinct span/instant categories in first-use
// order.
func (t *Trace) Categories() []string {
	if t == nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, e := range t.events {
		if e.Cat != "" && !seen[e.Cat] {
			seen[e.Cat] = true
			out = append(out, e.Cat)
		}
	}
	return out
}

// WriteJSON writes the trace as a Chrome trace-event JSON object:
// {"traceEvents": [...], "displayTimeUnit": "ms"}. Track names are emitted
// as thread_name metadata so viewers label the rows. Output is
// deterministic: encoding/json sorts map keys, and events appear in record
// order.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	all := make([]traceEvent, 0, len(t.tracks)+len(t.events))
	for i, name := range t.tracks {
		all = append(all, traceEvent{
			Name: "thread_name", Ph: "M", PID: tracePID, TID: i + 1,
			Args: map[string]any{"name": name},
		})
	}
	all = append(all, t.events...)
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: all, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("obs: encode trace: %w", err)
	}
	return nil
}
