package sim

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	if n, _ := e.RunContext(context.Background(), 10*time.Second); n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunContext(context.Background(), time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of insertion order: %v", got)
		}
	}
}

func TestEngineClockDuringEvent(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.RunContext(context.Background(), time.Minute)
	if at != 5*time.Second {
		t.Errorf("Now during event = %v, want 5s", at)
	}
	if e.Now() != time.Minute {
		t.Errorf("Now after RunContext = %v, want 1m", e.Now())
	}
}

func TestEngineRunStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(2*time.Second, func() { ran = true })
	if n, _ := e.RunContext(context.Background(), time.Second); n != 0 {
		t.Fatalf("executed %d, want 0", n)
	}
	if ran {
		t.Error("event beyond horizon executed")
	}
	if len(e.heap) != 1 {
		t.Errorf("queued = %d, want 1", len(e.heap))
	}
	// The event survives for a later RunContext.
	e.RunContext(context.Background(), 3*time.Second)
	if !ran {
		t.Error("event did not execute on the second RunContext")
	}
}

func TestEngineEventSchedulesEvent(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	var tick func()
	tick = func() {
		times = append(times, e.Now())
		if len(times) < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunContext(context.Background(), time.Minute)
	if len(times) != 5 {
		t.Fatalf("got %d ticks, want 5", len(times))
	}
	for i, at := range times {
		if want := time.Duration(i) * time.Second; at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.Schedule(-5*time.Second, func() {
			if e.Now() != time.Second {
				t.Errorf("clamped event at %v, want 1s", e.Now())
			}
		})
	})
	e.RunContext(context.Background(), time.Minute)
}

func TestEngineAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.RunContext(context.Background(), 10*time.Second)
	fired := false
	e.At(time.Second, func() { fired = true })
	e.RunContext(context.Background(), 10*time.Second) // horizon equals now: event clamped to now runs
	if !fired {
		t.Error("past event did not run at current time")
	}
}

// TestQuickEngineOrdering property-checks that any batch of random delays
// executes in sorted order.
func TestQuickEngineOrdering(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine()
		var got []time.Duration
		for _, d := range delays {
			d := time.Duration(d%1e6) * time.Microsecond
			e.Schedule(d, func() { got = append(got, e.Now()) })
		}
		e.RunContext(context.Background(), time.Hour)
		if len(got) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEngineManyEventsStress(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(5))
	const n = 20000
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, func() { count++ })
	}
	if got, _ := e.RunContext(context.Background(), time.Second); got != n {
		t.Fatalf("executed %d, want %d", got, n)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func TestEngineRunContextPreCancelled(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(time.Second, func() { fired = true })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := e.RunContext(ctx, 10*time.Second)
	if n != 0 || err == nil {
		t.Fatalf("RunContext on cancelled ctx = (%d, %v), want (0, ctx error)", n, err)
	}
	if fired {
		t.Error("event fired despite cancelled context")
	}
	if len(e.heap) != 1 {
		t.Errorf("pending = %d, want 1 (queue untouched)", len(e.heap))
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v on cancelled run", e.Now())
	}
}

// TestEngineRunContextCancelMidRun cancels from inside event #10 and checks
// the documented poll granularity: the loop notices at the next 256-event
// boundary and leaves the clock at the last executed event, not the horizon.
func TestEngineRunContextCancelMidRun(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 1000; i++ {
		i := i
		e.Schedule(time.Duration(i+1)*time.Millisecond, func() {
			if i == 9 {
				cancel()
			}
		})
	}
	n, err := e.RunContext(ctx, time.Hour)
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if n != 256 {
		t.Errorf("executed %d events, want exactly 256 (poll boundary)", n)
	}
	if want := 256 * time.Millisecond; e.Now() != want {
		t.Errorf("clock = %v, want %v (last executed event, not the horizon)", e.Now(), want)
	}
}
