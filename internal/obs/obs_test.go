package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		// Registration order deliberately scrambled: snapshots must sort.
		r.Counter("z_last").Add(3)
		r.Counter("medium_frames_sent", "subtype", "beacon").Add(7)
		r.Counter("medium_frames_sent", "subtype", "auth").Inc()
		r.Gauge("sim_queue_depth_hwm").SetMax(41)
		r.Gauge("sim_queue_depth_hwm").SetMax(12) // below HWM: ignored
		h := r.Histogram("core_batch_size", []float64{10, 20, 40})
		for _, v := range []float64{5, 15, 40, 41} {
			h.Observe(v)
		}
		return r
	}
	a, b := build().Snapshot().String(), build().Snapshot().String()
	if a != b {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a, b)
	}
	want := []string{
		"core_batch_size histogram count=4 sum=101 le10=1 le20=1 le40=1 leInf=1",
		"medium_frames_sent{subtype=auth} 1",
		"medium_frames_sent{subtype=beacon} 7",
		"sim_queue_depth_hwm 41",
		"z_last 3",
	}
	if got := strings.TrimSpace(a); got != strings.Join(want, "\n") {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestRegistrySnapshotAfterRegistration checks the snapshot order kept
// between snapshots: a metric registered after one snapshot, and a value
// changed on an existing one, both show in the next.
func TestRegistrySnapshotAfterRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_mid").Inc()
	r.Counter("z_last").Inc()
	if got, want := strings.TrimSpace(r.Snapshot().String()), "m_mid 1\nz_last 1"; got != want {
		t.Fatalf("first dump:\n%s\nwant:\n%s", got, want)
	}
	r.Counter("a_first").Add(2)
	r.Counter("m_mid", "k", "v").Inc()
	r.Counter("z_last").Inc()
	want := "a_first 2\nm_mid 1\nm_mid{k=v} 1\nz_last 2"
	if got := strings.TrimSpace(r.Snapshot().String()); got != want {
		t.Fatalf("dump after registering more:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("m", "b", "2", "a", "1")
	c2 := r.Counter("m", "a", "1", "b", "2")
	if c1 != c2 {
		t.Fatal("label order should not create distinct metrics")
	}
	c1.Inc()
	if got := r.Snapshot().Value("m", "a", "1", "b", "2"); got != 1 {
		t.Fatalf("Value = %v, want 1", got)
	}
}

func TestSnapshotGet(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "kind", "mirror").Add(5)
	s := r.Snapshot()
	if got := s.Value("hits", "kind", "mirror"); got != 5 {
		t.Fatalf("Value = %v", got)
	}
	if _, ok := s.Get("hits", "kind", "popularity"); ok {
		t.Fatal("unexpected metric present")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1}).Observe(2)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	var j *Journal
	j.Record(0, EventAdaptation, "", "")
	if j.Len() != 0 || j.Dropped() != 0 || j.Events() != nil {
		t.Fatal("nil journal should be inert")
	}
	var tr *Trace
	tid := tr.Track("t")
	tr.Span("c", "n", tid, 0, 1, nil)
	tr.Instant("c", "n", tid, 0, nil)
	if tr.Len() != 0 {
		t.Fatal("nil trace should be inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace JSON invalid: %v", err)
	}
}

func TestJournalRingOverflow(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(time.Duration(i), EventFrameLoss, "tx", "")
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", j.Dropped())
	}
	events := j.Events()
	for i, e := range events {
		if want := time.Duration(6 + i); e.At != want {
			t.Fatalf("event %d at %v, want %v (most recent kept, chronological)", i, e.At, want)
		}
	}
}

// TestMergeJournals: the merged ring is ordered by virtual time with
// argument order breaking ties, keeps the newest events, and counts both
// the inputs' overwrites and what the merge leaves out, so Dropped is
// events recorded minus events kept.
func TestMergeJournals(t *testing.T) {
	a, b := NewJournal(3), NewJournal(3)
	recorded := 0
	for i := 0; i < 5; i++ { // a keeps 2..4, overwrites 2
		a.Record(time.Duration(i)*time.Second, EventFrameLoss, "a", "")
		recorded++
	}
	for _, at := range []int{3, 4, 6} { // b keeps all three
		b.Record(time.Duration(at)*time.Second, EventFrameLoss, "b", "")
		recorded++
	}
	m := MergeJournals(4, a, b)
	if m.Len() != 4 {
		t.Fatalf("Len = %d, want 4", m.Len())
	}
	if m.Dropped() != recorded-m.Len() {
		t.Errorf("Dropped = %d, want recorded %d - kept %d", m.Dropped(), recorded, m.Len())
	}
	var got []string
	for _, e := range m.Events() {
		got = append(got, e.At.String()+e.Actor)
	}
	if want := "[3sb 4sa 4sb 6sb]"; fmt.Sprint(got) != want {
		t.Errorf("merged = %v, want %s", got, want)
	}
	if MergeJournals(4, a) != a {
		t.Error("a single journal is not returned as is")
	}
	if MergeJournals(4, nil, nil) != nil {
		t.Error("nil journals merged into a recorder")
	}
	checkCapacity(t, m, 4)
}

func TestJournalDefaultCap(t *testing.T) {
	checkCapacity(t, NewJournal(0), DefaultJournalCap)
}

// checkCapacity fills j to want events and records one more: the ring must
// keep want events and drop exactly one, the oldest.
func checkCapacity(t *testing.T, j *Journal, want int) {
	t.Helper()
	for j.Len() < want {
		before := j.Len()
		j.Record(time.Hour, EventRunStart, "fill", "")
		if j.Len() != before+1 {
			t.Fatalf("journal holds %d events, short of its capacity %d", before, want)
		}
	}
	dropped := j.Dropped()
	j.Record(2*time.Hour, EventRunStart, "last", "")
	if j.Len() != want || j.Dropped() != dropped+1 {
		t.Fatalf("one past capacity %d: Len %d, Dropped %d, want %d and %d",
			want, j.Len(), j.Dropped(), want, dropped+1)
	}
	if e := j.Events(); e[len(e)-1].Actor != "last" {
		t.Fatalf("newest event is %q, want last", e[len(e)-1].Actor)
	}
}

// TestTraceAppend: appending a separately recorded trace keeps its events
// on its own tracks, renumbered past the destination's.
func TestTraceAppend(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	a.Span("client", "lifecycle", a.Track("client a"), 0, time.Second, nil)
	bt := b.Track("client b")
	b.Track("attacker b")
	b.Span("scan", "scan", bt, 0, time.Second, nil)
	b.Instant("engine", "untracked", 0, time.Second, nil)
	a.Append(b)
	a.Append(nil)
	var nilTrace *Trace
	nilTrace.Append(a)

	want := NewTrace()
	want.Span("client", "lifecycle", want.Track("client a"), 0, time.Second, nil)
	wt := want.Track("client b")
	want.Track("attacker b")
	want.Span("scan", "scan", wt, 0, time.Second, nil)
	want.Instant("engine", "untracked", 0, time.Second, nil)
	var got, exp bytes.Buffer
	if err := a.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&exp); err != nil {
		t.Fatal(err)
	}
	if got.String() != exp.String() {
		t.Errorf("appended trace\n%s\nwant\n%s", got.String(), exp.String())
	}
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTrace()
	client := tr.Track("client 02:00:00:00:00:01")
	attacker := tr.Track("attacker")
	tr.Span("client", "lifecycle", client, 0, 2*time.Second, map[string]any{"mac": "02:00:00:00:00:01"})
	tr.Span("scan", "scan", client, 100*time.Millisecond, 140*time.Millisecond, nil)
	tr.Span("attacker", "reply-batch", attacker, 110*time.Millisecond, 120*time.Millisecond, map[string]any{"n": 40})
	tr.Instant("engine", "adaptation", attacker, time.Second, nil)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 thread_name metadata + 4 events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	cats := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		cats[e.Cat] = true
	}
	for _, want := range []string{"client", "scan", "attacker"} {
		if !cats[want] {
			t.Fatalf("missing category %q", want)
		}
	}
	// Span timestamps are microseconds.
	for _, e := range doc.TraceEvents {
		if e.Name == "reply-batch" {
			if e.TS != 110000 || e.Dur != 10000 {
				t.Fatalf("reply-batch ts=%v dur=%v, want 110000/10000", e.TS, e.Dur)
			}
		}
	}
	if got := tr.Categories(); len(got) != 4 {
		t.Fatalf("Categories = %v", got)
	}
}

func TestHistogramKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}
