package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

// TestMediumDetachCompactsMidBroadcast is the regression test for
// compaction mid-fan-out: a Receive callback that detaches enough stations
// to trigger maybeCompact must neither skip nor double-deliver to the
// stations that remain attached.
func TestMediumDetachCompactsMidBroadcast(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)

	tx := &fakeStation{addr: ieee80211.MAC{0x02, 0xff, 0, 0, 0, 0}, pos: geo.Pt(0, 0)}
	tx.radio = attach(t, m.Attach, tx)
	stations := make([]*fakeStation, 100)
	for i := range stations {
		stations[i] = &fakeStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i / 256), byte(i)},
			pos:  geo.Pt(float64(i)*0.1, 0), // all well within range
		}
		stations[i].radio = attach(t, m.Attach, stations[i])
	}

	// The first receiver detaches stations 1..80, shrinking the live set
	// from 101 to 21 on a 101-slot table — past the compaction threshold,
	// so the station table is rebuilt while the broadcast is mid-flight.
	stations[0].onRecv = func(*ieee80211.Frame) {
		for i := 1; i <= 80; i++ {
			stations[i].radio.Detach()
		}
	}

	tx.radio.Transmit(probeReq(tx.addr))
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
// reporting a move on a nil radio is a no-op.
func TestMediumMovedRebucketsStation(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(500, 500)} // far cell
	e, _ := newTestMedium(t, 50, tx, rx)

	(*Radio)(nil).Moved() // must not panic

	rx.pos = geo.Pt(10, 0)
	rx.radio.Moved()
	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	if len(rx.received) != 1 {
		t.Fatalf("moved-in station received %d frames, want 1", len(rx.received))
	}

	rx.pos = geo.Pt(500, 500)
	rx.radio.Moved()
	tx.radio.Transmit(probeReq(tx.addr))
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
// behaviour: once the heaps are warm, scheduling and executing events
// allocates nothing (both heaps are value slices that keep their capacity).
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

// TestEngineRefillSteadyStateAllocs pins the far-to-near refill: once
// warm, events scheduled seconds to minutes ahead wait in the far heap,
// move to the near heap window by window and run without allocating.
func TestEngineRefillSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	ran := 0
	fn := func() { ran++ }
	ctx := context.Background()
	op := func() {
		for i := 1; i <= 64; i++ {
			e.Schedule(time.Duration(i)*time.Second, fn)
		}
		e.Schedule(time.Millisecond, fn)
		e.RunContext(ctx, e.Now()+2*time.Minute)
	}
	op()
	avg := testing.AllocsPerRun(100, op)
	if avg != 0 {
		t.Errorf("far-heap events allocate %.2f per 65-event round, want 0", avg)
	}
	if want := 65 * 102; ran != want || pending(e) != 0 {
		t.Errorf("ran %d events with %d pending, want %d with none", ran, pending(e), want)
	}
}

// TestMediumBroadcastSteadyStateAllocs pins the delivery path: with pooled
// delivery events and the reusable candidate buffer, a broadcast over a
// static population allocates nothing once warm.
func TestMediumBroadcastSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &quietStation{addr: mac(1), pos: geo.Pt(0, 0)}
	radio := attach(t, m.Attach, tx)
	for i := 0; i < 50; i++ {
		s := &quietStation{
			addr: ieee80211.MAC{0x02, 1, 0, 0, 0, byte(i)},
			pos:  geo.Pt(float64(i), 0),
		}
		attach(t, m.Attach, s)
	}
	f := probeReq(tx.addr)
	radio.Transmit(f)
	e.RunContext(context.Background(), time.Second) // warm the pools and the candidate buffer

	ctx := context.Background()
	avg := testing.AllocsPerRun(100, func() {
		radio.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Second)
	})
	if avg != 0 {
		t.Errorf("broadcast delivery steady state allocates %.2f/op, want 0", avg)
	}
}

// quietTuner is a quietStation parked on a channel.
type quietTuner struct {
	quietStation
	ch uint8
}

func (s *quietTuner) CurrentChannel() uint8 { return s.ch }

// channelCrowd attaches a transmitter on channel 6 at the origin and n
// stations spread over its cell neighbourhood, round-robin over channels
// 1, 6 and 11, plus one channel-agnostic station. It returns the
// transmitter's radio and a probe request from it.
func channelCrowd(tb testing.TB, m *Medium, n int) (*Radio, *ieee80211.Frame) {
	tb.Helper()
	tx := &quietTuner{quietStation: quietStation{addr: mac(0), pos: geo.Pt(25, 25)}, ch: 6}
	stations := []Station{tx, &quietStation{addr: mac(1), pos: geo.Pt(30, 20)}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		stations = append(stations, &quietTuner{
			quietStation: quietStation{
				addr: ieee80211.MAC{0x02, 1, 0, 0, byte(i >> 8), byte(i)},
				pos:  geo.Pt(rng.Float64()*150-50, rng.Float64()*150-50),
			},
			ch: []uint8{1, 6, 11}[i%3],
		})
	}
	radio := attach(tb, m.Attach, tx)
	for _, s := range stations[1:] {
		attach(tb, m.Attach, s)
	}
	return radio, probeReq(tx.addr)
}

// TestMediumBroadcastChannelsSteadyStateAllocs is
// TestMediumBroadcastSteadyStateAllocs over a crowd on channels 1, 6 and 11
// and one agnostic station, so the fan-out masks its cells by channel.
func TestMediumBroadcastChannelsSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	radio, f := channelCrowd(t, m, 150)
	ctx := context.Background()
	radio.Transmit(f)
	e.RunContext(ctx, time.Second)
	avg := testing.AllocsPerRun(100, func() {
		radio.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Second)
	})
	if avg != 0 {
		t.Errorf("broadcast delivery across channels allocates %.2f/op, want 0", avg)
	}
}

// TestMediumRetunedSteadyStateAllocs pins Retuned: reporting an unchanged
// channel allocates nothing, and neither does hopping a lone station
// between channels once each channel's mask has held it.
func TestMediumRetunedSteadyStateAllocs(t *testing.T) {
	_, m := newTestMedium(t, 50)
	s := &quietTuner{quietStation: quietStation{addr: mac(1), pos: geo.Pt(10, 10)}, ch: 1}
	radio := attach(t, m.Attach, s)
	if avg := testing.AllocsPerRun(100, func() { radio.Retuned() }); avg != 0 {
		t.Errorf("Retuned on an unchanged channel allocates %.2f/op, want 0", avg)
	}
	hop := func() {
		for _, c := range []uint8{6, 11, 1} {
			s.ch = c
			radio.Retuned()
		}
	}
	hop()
	if avg := testing.AllocsPerRun(100, hop); avg != 0 {
		t.Errorf("Retuned across channels allocates %.2f per hop of three, want 0", avg)
	}
}

// TestMediumUnicastSteadyStateAllocs pins a unicast Transmit and its
// delivery at zero allocations once the delivery pool is warm.
func TestMediumUnicastSteadyStateAllocs(t *testing.T) {
	tx := &quietStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &quietStation{addr: mac(2), pos: geo.Pt(5, 0)}
	e := NewEngine()
	m := NewMedium(e, 50)
	radio := attach(t, m.Attach, tx)
	attach(t, m.Attach, rx)
	f := probeResp(tx.addr, rx.addr, "Net")
	ctx := context.Background()
	radio.Transmit(f)
	e.RunContext(ctx, time.Second)
	avg := testing.AllocsPerRun(100, func() {
		radio.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Second)
	})
	if avg != 0 || rx.got != 102 {
		t.Errorf("unicast delivery allocates %.2f/op with %d of 102 frames delivered, want 0", avg, rx.got)
	}
}
