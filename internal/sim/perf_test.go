package sim

import (
	"context"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

// TestMediumDetachCompactsMidBroadcast is the regression test for the
// compaction generation counter: a Receive callback that detaches enough
// stations to trigger maybeCompact mid-fan-out must neither skip nor
// double-deliver to the stations that remain attached.
func TestMediumDetachCompactsMidBroadcast(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)

	tx := &fakeStation{addr: ieee80211.MAC{0x02, 0xff, 0, 0, 0, 0}, pos: geo.Pt(0, 0)}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	stations := make([]*fakeStation, 100)
	for i := range stations {
		stations[i] = &fakeStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i / 256), byte(i)},
			pos:  geo.Pt(float64(i)*0.1, 0), // all well within range
		}
		if err := m.Attach(stations[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The first receiver detaches stations 1..80, shrinking the live set
	// from 101 to 21 on a 101-slot table — past the compaction threshold,
	// so the station table is rebuilt while the broadcast is mid-flight.
	stations[0].onRecv = func(*ieee80211.Frame) {
		for i := 1; i <= 80; i++ {
			m.Detach(stations[i].addr)
		}
	}

	m.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)

	if got := len(m.index); got != 21 {
		t.Fatalf("StationCount = %d, want 21", got)
	}
	if len(stations[0].received) != 1 {
		t.Errorf("trigger station received %d frames, want 1", len(stations[0].received))
	}
	for i := 1; i <= 80; i++ {
		if len(stations[i].received) != 0 {
			t.Errorf("detached station %d received %d frames, want 0", i, len(stations[i].received))
		}
	}
	for i := 81; i < 100; i++ {
		if len(stations[i].received) != 1 {
			t.Errorf("surviving station %d received %d frames, want exactly 1", i, len(stations[i].received))
		}
	}
}

// TestMediumMovedRebucketsStation pins the Moved contract: a station that
// walks into range and reports the move is found by the next broadcast, and
// reporting moves for unknown addresses is a no-op.
func TestMediumMovedRebucketsStation(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(500, 500)} // far cell
	e, m := newTestMedium(t, 50, tx, rx)

	m.Moved(mac(99)) // unknown: must not panic

	rx.pos = geo.Pt(10, 0)
	m.Moved(rx.addr)
	m.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	if len(rx.received) != 1 {
		t.Fatalf("moved-in station received %d frames, want 1", len(rx.received))
	}

	rx.pos = geo.Pt(500, 500)
	m.Moved(rx.addr)
	m.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), 2*time.Second)
	if len(rx.received) != 1 {
		t.Fatalf("moved-out station received %d frames in total, want still 1", len(rx.received))
	}
}

// quietStation neither records nor reacts — a receiver for allocation
// measurements.
type quietStation struct {
	addr ieee80211.MAC
	pos  geo.Point
	got  int
}

func (s *quietStation) Addr() ieee80211.MAC      { return s.addr }
func (s *quietStation) Pos() geo.Point           { return s.pos }
func (s *quietStation) Receive(*ieee80211.Frame) { s.got++ }

// TestEngineScheduleSteadyStateAllocs pins the event queue's allocation
// behaviour: once slot storage is warm, scheduling and executing events
// allocates nothing (the value heap recycles slots through the free list).
func TestEngineScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 128; i++ {
		e.Schedule(time.Duration(i), fn)
	}
	ctx := context.Background()
	e.RunContext(ctx, time.Second)
	avg := testing.AllocsPerRun(200, func() {
		e.Schedule(time.Microsecond, fn)
		e.RunContext(ctx, e.Now()+time.Microsecond)
	})
	if avg != 0 {
		t.Errorf("Engine.Schedule+RunContext steady state allocates %.2f/op, want 0", avg)
	}
}

// TestMediumBroadcastSteadyStateAllocs pins the delivery path: with pooled
// delivery events and the reusable candidate buffer, a broadcast over a
// static population allocates nothing once warm.
func TestMediumBroadcastSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &quietStation{addr: mac(1), pos: geo.Pt(0, 0)}
	if err := m.Attach(tx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s := &quietStation{
			addr: ieee80211.MAC{0x02, 1, 0, 0, 0, byte(i)},
			pos:  geo.Pt(float64(i), 0),
		}
		if err := m.Attach(s); err != nil {
			t.Fatal(err)
		}
	}
	f := probeReq(tx.addr)
	m.Transmit(f)
	e.RunContext(context.Background(), time.Second) // warm the pools and the candidate buffer

	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		m.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Second)
	})
	if avg != 0 {
		t.Errorf("broadcast delivery steady state allocates %.2f/op, want 0", avg)
	}
}
