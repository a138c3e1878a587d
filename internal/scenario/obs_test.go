package scenario

import (
	"context"
	"testing"
	"time"

	"cityhunter/internal/obs"
)

// TestObservabilityDeterminism runs the same seed twice with every
// observability surface enabled and requires byte-identical metrics
// snapshots and journals: instrumentation must never consume run
// randomness or otherwise perturb the schedule.
func TestObservabilityDeterminism(t *testing.T) {
	invoke := func() *Result {
		cfg := baseConfig(t, CanteenVenue(), CityHunter, 5)
		cfg.Metrics = true
		cfg.FlightRecorderCap = 256
		cfg.SpanTrace = true
		res, err := RunContext(context.Background(), cfg, 4, 3*time.Minute)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := invoke(), invoke()

	if got, want := a.Metrics.String(), b.Metrics.String(); got != want {
		t.Errorf("same-seed metrics diverged:\n--- first ---\n%s\n--- second ---\n%s", got, want)
	}
	if a.Metrics.Value("sim_events_executed") == 0 {
		t.Error("sim_events_executed missing from snapshot")
	}
	if a.Metrics.Value("scenario_virtual_seconds") != 180 {
		t.Errorf("scenario_virtual_seconds = %v, want 180",
			a.Metrics.Value("scenario_virtual_seconds"))
	}

	ea, eb := a.Journal.Events(), b.Journal.Events()
	if len(ea) != len(eb) {
		t.Fatalf("journal lengths diverged: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Errorf("journal event %d diverged: %+v vs %+v", i, ea[i], eb[i])
		}
	}

	if a.Spans == nil || a.Spans.Len() == 0 {
		t.Fatal("span trace empty")
	}
	cats := make(map[string]bool)
	for _, c := range a.Spans.Categories() {
		cats[c] = true
	}
	if !cats["client"] {
		t.Errorf("span trace missing client lifecycle category (got %v)", a.Spans.Categories())
	}
}

// TestObservabilityOffByDefault checks the zero-config path carries no
// observability state, so the default run pays only nil-check branches.
func TestObservabilityOffByDefault(t *testing.T) {
	res, err := RunContext(context.Background(), baseConfig(t, CanteenVenue(), KARMA, 2), 4, time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics != nil || res.Journal != nil || res.Spans != nil {
		t.Errorf("observability attached without being requested: metrics=%v journal=%v spans=%v",
			res.Metrics != nil, res.Journal != nil, res.Spans != nil)
	}
}

// TestTraceDroppedSurfaced arms the pcap monitor with a tiny cap so the
// run overflows it, and checks the capture's three drop reports agree:
// Monitor.Dropped, the live trace_monitor_dropped_frames counter, and one
// journalled first-drop event.
func TestTraceDroppedSurfaced(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 5)
	cfg.Trace = true
	cfg.TraceMaxEntries = 10
	cfg.FlightRecorderCap = 64
	cfg.Metrics = true
	res, err := RunContext(context.Background(), cfg, 4, 3*time.Minute)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Trace.Dropped == 0 {
		t.Fatal("expected the 10-entry capture to overflow")
	}
	if got := res.Metrics.Value("trace_monitor_dropped_frames"); got != float64(res.Trace.Dropped) {
		t.Errorf("trace_monitor_dropped_frames = %v, monitor counted %d", got, res.Trace.Dropped)
	}
	drops := 0
	for _, e := range res.Journal.Events() {
		if e.Type == obs.EventTraceDrop {
			drops++
		}
	}
	if drops != 1 {
		t.Errorf("journalled %d capture-drop events, want exactly the first", drops)
	}
}
