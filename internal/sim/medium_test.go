package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
)

// fakeStation records a copy of everything it receives.
type fakeStation struct {
	addr     ieee80211.MAC
	pos      geo.Point
	received []ieee80211.Frame
	onRecv   func(*ieee80211.Frame)
	radio    *Radio
}

func (s *fakeStation) Addr() ieee80211.MAC { return s.addr }
func (s *fakeStation) Pos() geo.Point      { return s.pos }
func (s *fakeStation) Receive(f *ieee80211.Frame) {
	s.received = append(s.received, *f)
	if s.onRecv != nil {
		s.onRecv(f)
	}
}

func mac(b byte) ieee80211.MAC { return ieee80211.MAC{0x02, 0, 0, 0, 0, b} }

func newTestMedium(t *testing.T, radius float64, stations ...*fakeStation) (*Engine, *Medium) {
	t.Helper()
	e := NewEngine()
	m := NewMedium(e, radius)
	for _, s := range stations {
		s.radio = attach(t, m.Attach, s)
	}
	return e, m
}

// attach attaches s through Medium.Attach or AttachPromiscuous and returns
// its radio, failing the test on error.
func attach(tb testing.TB, attachFn func(Station) (*Radio, error), s Station) *Radio {
	tb.Helper()
	r, err := attachFn(s)
	if err != nil {
		tb.Fatalf("Attach(%v): %v", s.Addr(), err)
	}
	return r
}

// meter instruments m with a fresh registry and returns it.
func meter(m *Medium) *obs.Registry {
	reg := obs.NewRegistry()
	m.Instrument(&obs.Runtime{Metrics: reg})
	return reg
}

func probeReq(sa ieee80211.MAC) *ieee80211.Frame {
	return &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC,
		SA:      sa,
		BSSID:   ieee80211.BroadcastMAC,
	}
}

func probeResp(sa, da ieee80211.MAC, ssid string) *ieee80211.Frame {
	return &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		DA:      da,
		SA:      sa,
		BSSID:   sa,
		SSID:    ssid,
	}
}

func TestMediumBroadcastDelivery(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	near := &fakeStation{addr: mac(2), pos: geo.Pt(10, 0)}
	far := &fakeStation{addr: mac(3), pos: geo.Pt(100, 0)}
	e, m := newTestMedium(t, 50, tx, near, far)
	reg := meter(m)

	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)

	if len(near.received) != 1 {
		t.Errorf("near received %d frames, want 1", len(near.received))
	}
	if len(far.received) != 0 {
		t.Errorf("far received %d frames, want 0", len(far.received))
	}
	if len(tx.received) != 0 {
		t.Errorf("transmitter received own frame")
	}
	snap, sub := reg.Snapshot(), ieee80211.SubtypeProbeRequest.String()
	sent, delivered := snap.Value("medium_frames_sent", "subtype", sub), snap.Value("medium_frames_delivered", "subtype", sub)
	if sent != 1 || delivered != 1 {
		t.Errorf("sent/delivered = %v/%v, want 1/1", sent, delivered)
	}
}

func TestMediumUnicastDelivery(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(10, 0)}
	other := &fakeStation{addr: mac(3), pos: geo.Pt(10, 10)}
	e, _ := newTestMedium(t, 50, tx, dst, other)

	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.RunContext(context.Background(), time.Second)

	if len(dst.received) != 1 {
		t.Errorf("dst received %d, want 1", len(dst.received))
	}
	if len(other.received) != 0 {
		t.Errorf("bystander received unicast frame")
	}
}

func TestMediumUnicastOutOfRange(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(60, 0)}
	e, _ := newTestMedium(t, 50, tx, dst)
	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.RunContext(context.Background(), time.Second)
	if len(dst.received) != 0 {
		t.Errorf("out-of-range dst received %d frames", len(dst.received))
	}
}

func TestMediumAirtimeDelay(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, _ := newTestMedium(t, 50, tx, dst)

	f := probeResp(tx.addr, dst.addr, "Net")
	var deliveredAt time.Duration
	dst.onRecv = func(*ieee80211.Frame) { deliveredAt = e.Now() }
	done := tx.radio.Transmit(f)
	e.RunContext(context.Background(), time.Second)

	if deliveredAt != f.Airtime() {
		t.Errorf("delivered at %v, want airtime %v", deliveredAt, f.Airtime())
	}
	if done != f.Airtime() {
		t.Errorf("Transmit returned %v, want %v", done, f.Airtime())
	}
}

func TestMediumSerializesTransmitter(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, _ := newTestMedium(t, 50, tx, dst)

	var times []time.Duration
	dst.onRecv = func(*ieee80211.Frame) { times = append(times, e.Now()) }
	const n = 40
	f := probeResp(tx.addr, dst.addr, "SomeNetworkSSID")
	for i := 0; i < n; i++ {
		tx.radio.Transmit(f)
	}
	e.RunContext(context.Background(), time.Minute)

	if len(times) != n {
		t.Fatalf("delivered %d, want %d", len(times), n)
	}
	// Back-to-back frames are spaced exactly one airtime apart.
	for i := 1; i < n; i++ {
		if gap := times[i] - times[i-1]; gap != f.Airtime() {
			t.Fatalf("gap %d = %v, want %v", i, gap, f.Airtime())
		}
	}
	// 40 responses at ~0.25 ms each occupy about the paper's 10 ms window.
	total := times[n-1] - times[0]
	if total < 8*time.Millisecond || total > 13*time.Millisecond {
		t.Errorf("40 responses spanned %v, want ≈10 ms", total)
	}
}

func TestMediumTwoTransmittersIndependent(t *testing.T) {
	a := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	b := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, _ := newTestMedium(t, 50, a, b)

	fa := probeResp(a.addr, b.addr, "A")
	fb := probeResp(b.addr, a.addr, "B")
	a.radio.Transmit(fa)
	b.radio.Transmit(fb)
	e.RunContext(context.Background(), time.Second)
	// Different transmitters do not queue behind each other.
	if len(a.received) != 1 || len(b.received) != 1 {
		t.Errorf("received a=%d b=%d, want 1/1", len(a.received), len(b.received))
	}
	if a.radio.BusyUntil() != fa.Airtime() {
		t.Errorf("a busyUntil = %v, want %v", a.radio.BusyUntil(), fa.Airtime())
	}
}

func TestMediumDetachDropsInFlight(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, _ := newTestMedium(t, 50, tx, dst)

	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	dst.radio.Detach()
	e.RunContext(context.Background(), time.Second)
	if len(dst.received) != 0 {
		t.Errorf("detached station received %d frames", len(dst.received))
	}
}

func TestMediumDetachedTransmitterLosesFrame(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, _ := newTestMedium(t, 50, tx, dst)

	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	tx.radio.Detach()
	e.RunContext(context.Background(), time.Second)
	if len(dst.received) != 0 {
		t.Errorf("frame from departed transmitter delivered")
	}
}

// TestMediumInFlightFromDetachedRadioIsLost detaches a radio while its
// unicast and broadcast frames are in flight: both are lost, also when the
// station attaches again before they land — under a new MAC, as a rotation
// does, or under the same one — since they went out on the old radio. The
// new radio then transmits from an idle queue.
func TestMediumInFlightFromDetachedRadioIsLost(t *testing.T) {
	for _, c := range []struct {
		name     string
		reattach bool
		addr     ieee80211.MAC
	}{
		{"detached", false, mac(1)},
		{"reattached-new-mac", true, mac(3)},
		{"reattached-same-mac", true, mac(1)},
	} {
		t.Run(c.name, func(t *testing.T) {
			tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
			dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
			e, m := newTestMedium(t, 50, tx, dst)
			tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
			tx.radio.Transmit(probeReq(tx.addr))
			tx.radio.Detach()
			if c.reattach {
				tx.addr = c.addr
				tx.radio = attach(t, m.Attach, tx)
			}
			e.RunContext(context.Background(), time.Second)
			if len(dst.received) != 0 {
				t.Fatalf("%d frames from a detached radio delivered", len(dst.received))
			}
			if !c.reattach {
				return
			}
			f := probeReq(tx.addr)
			if done := tx.radio.Transmit(f); done != e.Now()+f.Airtime() {
				t.Errorf("the new radio's frame ends at %v, want %v", done, e.Now()+f.Airtime())
			}
			e.RunContext(context.Background(), 2*time.Second)
			if len(dst.received) != 1 {
				t.Errorf("the new radio's frame reached dst %d times, want 1", len(dst.received))
			}
		})
	}
}

// TestMediumUnicastReceiverReattachMidBurst sends a burst of probe
// responses to one DA whose radio detaches after the fourth lands, and
// either stays away or re-attaches under the same MAC as a new station:
// the rest of the burst is lost, or reaches the new station.
func TestMediumUnicastReceiverReattachMidBurst(t *testing.T) {
	for _, reattach := range []bool{false, true} {
		t.Run(fmt.Sprintf("reattach=%v", reattach), func(t *testing.T) {
			tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
			dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
			e, m := newTestMedium(t, 50, tx, dst)
			next := &fakeStation{addr: dst.addr, pos: geo.Pt(2, 0)}
			dst.onRecv = func(*ieee80211.Frame) {
				if len(dst.received) == 4 {
					dst.radio.Detach()
					if reattach {
						next.radio = attach(t, m.Attach, next)
					}
				}
			}
			for i := 0; i < 10; i++ {
				tx.radio.Transmit(probeResp(tx.addr, dst.addr, fmt.Sprintf("Net-%d", i)))
			}
			e.RunContext(context.Background(), time.Second)
			want := 0
			if reattach {
				want = 6
			}
			if len(dst.received) != 4 || len(next.received) != want {
				t.Fatalf("first radio got %d frames, re-attached one %d; want 4 and %d",
					len(dst.received), len(next.received), want)
			}
			for i, f := range next.received {
				if want := fmt.Sprintf("Net-%d", i+4); f.SSID != want {
					t.Errorf("re-attached radio's frame %d is %q, want %q", i, f.SSID, want)
				}
			}
		})
	}
}

// TestMediumRangeBoundary pins the inclusive range check: a receiver at
// exactly the radius hears unicast and broadcast frames, and one a single
// float step beyond it hears neither.
func TestMediumRangeBoundary(t *testing.T) {
	const radius = 50.0
	for _, c := range []struct {
		x     float64
		hears bool
	}{
		{radius, true},
		{math.Nextafter(radius, math.Inf(1)), false},
	} {
		tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
		rx := &fakeStation{addr: mac(2), pos: geo.Pt(c.x, 0)}
		e, _ := newTestMedium(t, radius, tx, rx)
		tx.radio.Transmit(probeResp(tx.addr, rx.addr, "Net"))
		tx.radio.Transmit(probeReq(tx.addr))
		e.RunContext(context.Background(), time.Second)
		want := 0
		if c.hears {
			want = 2
		}
		if len(rx.received) != want {
			t.Errorf("receiver at x=%v heard %d frames, want %d (unicast and broadcast)", c.x, len(rx.received), want)
		}
	}
}

// TestNewMediumRequiresPositiveRadius pins NewMedium's precondition: the
// broadcast index's cells are sized by the radius, and there is no
// full-scan fallback.
func TestNewMediumRequiresPositiveRadius(t *testing.T) {
	for _, r := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMedium(radius %v) did not panic", r)
				}
			}()
			NewMedium(NewEngine(), r)
		}()
	}
}

// TestCellKeyNegativeCoordinates checks that the broadcast index's cells
// partition the plane: the cells just left of and just right of the
// origin are distinct (truncation toward zero would fold them together),
// and a cell boundary belongs to the cell on its right.
func TestCellKeyNegativeCoordinates(t *testing.T) {
	if keyOf(geo.Pt(-1, 0), 10) == keyOf(geo.Pt(1, 0), 10) {
		t.Error("cells across x=0 folded together")
	}
	for _, c := range []struct {
		p    geo.Point
		want cellKey
	}{
		{geo.Pt(-1, -1), cellKey{X: -1, Y: -1}},
		{geo.Pt(-10, 0), cellKey{X: -1, Y: 0}},
		{geo.Pt(-10.5, 9.99), cellKey{X: -2, Y: 0}},
		{geo.Pt(10, -20), cellKey{X: 1, Y: -2}},
	} {
		if got := keyOf(c.p, 10); got != c.want {
			t.Errorf("keyOf(%v) = %+v, want %+v", c.p, got, c.want)
		}
	}
}

// TestMediumIndexMatchesSlots drives random attaches, moves, retunes,
// detaches and compactions, and after each checks the broadcast index
// against the station table: every cell bitset and channel mask holds
// exactly the attached slots whose position and channel put them there,
// and no empty cell is kept.
func TestMediumIndexMatchesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, m := newTestMedium(t, 50)
	reg := meter(m)
	var sts []*quietTuner
	var radios []*Radio
	for op := 0; op < 3000; op++ {
		// Attaches outnumber detaches early on, then match them, so the
		// table grows past 64 slots and then compacts.
		switch k := rng.Intn(10); {
		case k < 3 || len(sts) == 0 || op < 300 && k < 6:
			s := &quietTuner{
				quietStation: quietStation{addr: ieee80211.MAC{0x02, 2, 0, 0, byte(op >> 8), byte(op)},
					pos: geo.Pt(rng.Float64()*300-150, rng.Float64()*300-150)},
				ch: []uint8{0, 1, 6, 11}[rng.Intn(4)],
			}
			sts, radios = append(sts, s), append(radios, attach(t, m.Attach, s))
		case k < 6:
			i := rng.Intn(len(sts))
			sts[i].pos = sts[i].pos.Add(geo.Pt(rng.Float64()*60-30, rng.Float64()*60-30))
			radios[i].Moved()
		case k < 8:
			i := rng.Intn(len(sts))
			sts[i].ch = []uint8{0, 1, 6, 11}[rng.Intn(4)]
			radios[i].Retuned()
		case len(m.index) > 0:
			// A live one, so tombstones build up to a compaction.
			i := rng.Intn(len(sts))
			for !radios[i].attached() {
				i = (i + 1) % len(sts)
			}
			radios[i].Detach()
		}
		cells := map[cellKey][]uint64{}
		chans := map[uint8][]uint64{}
		for i, r := range m.order {
			if r != nil {
				k := keyOf(m.pos[i], m.radius)
				cells[k] = setBit(cells[k], int32(i))
				chans[m.ch[i]] = setBit(chans[m.ch[i]], int32(i))
			}
		}
		// same compares two bitsets up to trailing zero words.
		same := func(a, b []uint64) bool {
			for w := range max(len(a), len(b)) {
				if wordAt(a, w) != wordAt(b, w) {
					return false
				}
			}
			return true
		}
		if len(m.cells) != len(cells) {
			t.Fatalf("op %d: %d cells kept, %d occupied", op, len(m.cells), len(cells))
		}
		for k, want := range cells {
			if !same(m.cells[k], want) {
				t.Fatalf("op %d: cell %+v holds %b, want %b", op, k, m.cells[k], want)
			}
		}
		for c, got := range m.chans {
			if !same(got, chans[uint8(c)]) {
				t.Fatalf("op %d: channel %d mask %b, want %b", op, c, got, chans[uint8(c)])
			}
		}
	}
	if n := reg.Snapshot().Value("medium_compactions"); n == 0 {
		t.Fatal("no compaction: the ops miss the rebuild")
	}
}

func TestMediumAttachDuplicate(t *testing.T) {
	s := &fakeStation{addr: mac(1)}
	_, m := newTestMedium(t, 50, s)
	if r, err := m.Attach(&fakeStation{addr: mac(1)}); err == nil || r != nil {
		t.Errorf("duplicate Attach returned %v, %v; want nil and an error", r, err)
	}
}

// TestMediumDetachUnknownIsNoop detaches a radio twice: the second Detach
// must neither panic nor disturb a station attached since under the same
// MAC.
func TestMediumDetachUnknownIsNoop(t *testing.T) {
	s := &fakeStation{addr: mac(9)}
	_, m := newTestMedium(t, 50, s)
	old := s.radio
	old.Detach()
	s.radio = attach(t, m.Attach, s)
	old.Detach()
	if len(m.index) != 1 || m.index[macKey(s.addr)] != s.radio {
		t.Errorf("a second Detach of a stale radio disturbed the station attached since")
	}
}

// TestMediumNilRadioIsNoop calls every Radio method on a nil and a zero
// handle: each must do nothing, and Transmit and BusyUntil return 0.
func TestMediumNilRadioIsNoop(t *testing.T) {
	f := probeReq(mac(1))
	for _, r := range []*Radio{nil, {}} {
		r.Moved()
		r.Retuned()
		if done := r.Transmit(f); done != 0 {
			t.Errorf("Transmit on %#v returned %v, want 0", r, done)
		}
		if busy := r.BusyUntil(); busy != 0 {
			t.Errorf("BusyUntil on %#v returned %v, want 0", r, busy)
		}
		r.Detach()
	}
}

func TestMediumMovingReceiver(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(10, 0)}
	e, _ := newTestMedium(t, 50, tx, dst)

	// The receiver walks out of range before the frame lands.
	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	dst.pos = geo.Pt(1000, 0)
	e.RunContext(context.Background(), time.Second)
	if len(dst.received) != 0 {
		t.Errorf("frame delivered to receiver that moved away")
	}
}

// TestMediumCompaction detaches 180 of 200 stations: the table compacts
// each time half its slots are tombstones and it holds at least 64 — at
// 100 and 150 detaches — and the rest still hear broadcasts.
func TestMediumCompaction(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	reg := meter(m)
	stations := make([]*fakeStation, 200)
	for i := range stations {
		stations[i] = &fakeStation{addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i / 256), byte(i)}}
		stations[i].radio = attach(t, m.Attach, stations[i])
	}
	for i := 0; i < 180; i++ {
		stations[i].radio.Detach()
	}
	if len(m.index) != 20 || len(m.order) != 50 {
		t.Fatalf("%d stations attached in %d slots, want 20 in 50", len(m.index), len(m.order))
	}
	if n := reg.Snapshot().Value("medium_compactions"); n != 2 {
		t.Fatalf("%v compactions, want 2", n)
	}
	// Remaining stations still reachable after compaction.
	tx := stations[190]
	tx.pos = geo.Pt(0, 0)
	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	for i := 180; i < 200; i++ {
		if i == 190 {
			continue
		}
		if len(stations[i].received) != 1 {
			t.Fatalf("station %d received %d frames after compaction", i, len(stations[i].received))
		}
	}
}

func TestMediumReceiveCallbackCanDetach(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	a := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	b := &fakeStation{addr: mac(3), pos: geo.Pt(2, 0)}
	e, _ := newTestMedium(t, 50, tx, a, b)

	// a detaches b upon reception; b must then not receive the broadcast.
	a.onRecv = func(*ieee80211.Frame) { b.radio.Detach() }
	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	if len(b.received) != 0 {
		t.Errorf("b received %d frames after being detached mid-delivery", len(b.received))
	}
}

// TestMediumDetachAfterAttachMidBroadcast detaches a receiver from a
// Receive callback that first attached enough stations to regrow the
// station table: the detached receiver must not hear the broadcast under
// way.
func TestMediumDetachAfterAttachMidBroadcast(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	a := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	b := &fakeStation{addr: mac(3), pos: geo.Pt(2, 0)}
	e, m := newTestMedium(t, 50, tx, a, b)
	a.onRecv = func(*ieee80211.Frame) {
		for i := 0; i < 10; i++ {
			attach(t, m.Attach, &fakeStation{addr: ieee80211.MAC{0x02, 9, 0, 0, 0, byte(i)}, pos: geo.Pt(500, 500)})
		}
		b.radio.Detach()
	}
	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	if len(b.received) != 0 {
		t.Errorf("b received %d frames after being detached mid-delivery", len(b.received))
	}
}

// TestMediumBroadcastOrderIsAttachOrder checks that a broadcast reaches
// its receivers in attach order: in one cell, spread over the
// transmitter's whole cell neighborhood and moved across cell boundaries
// in between, and across a compaction triggered in the middle of the
// fan-out (with the transmitter's slot among the candidates after it).
func TestMediumBroadcastOrderIsAttachOrder(t *testing.T) {
	// A rig is a medium with a transmitter at the origin and receivers
	// that log their attach index, in delivery order, to heard.
	type rig struct {
		e     *Engine
		m     *Medium
		tx    *fakeStation
		rxs   []*fakeStation
		heard []int
	}
	// build attaches a receiver at each position, and the transmitter
	// just before receiver txAt.
	build := func(t *testing.T, txAt int, pos []geo.Point) *rig {
		r := &rig{tx: &fakeStation{addr: ieee80211.MAC{0x02, 0xff, 0, 0, 0, 0}, pos: geo.Pt(0, 0)}}
		r.e, r.m = newTestMedium(t, 50)
		for i, p := range pos {
			if i == txAt {
				r.tx.radio = attach(t, r.m.Attach, r.tx)
			}
			s := &fakeStation{addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)}, pos: p}
			s.onRecv = func(*ieee80211.Frame) { r.heard = append(r.heard, i) }
			s.radio = attach(t, r.m.Attach, s)
			r.rxs = append(r.rxs, s)
		}
		return r
	}
	// inRange lists the receivers within range of the origin, in attach
	// order, skipping those in skip.
	inRange := func(r *rig, skip func(int) bool) []int {
		var want []int
		for i, s := range r.rxs {
			if s.pos.Dist(r.tx.pos) <= 50 && !skip(i) {
				want = append(want, i)
			}
		}
		return want
	}
	none := func(int) bool { return false }
	scatter := func(rng *rand.Rand, n int) []geo.Point {
		pos := make([]geo.Point, n)
		for i := range pos {
			// The transmitter's 3×3 neighborhood of 50 m cells is
			// [-50, 100) on each axis; some receivers land out of range.
			pos[i] = geo.Pt(rng.Float64()*150-50, rng.Float64()*150-50)
		}
		return pos
	}

	t.Run("one-cell", func(t *testing.T) {
		pos := make([]geo.Point, 5)
		for i := range pos {
			pos[i] = geo.Pt(1, 0)
		}
		r := build(t, 0, pos)
		r.tx.radio.Transmit(probeReq(r.tx.addr))
		r.e.RunContext(context.Background(), time.Second)
		if want := inRange(r, none); !slices.Equal(r.heard, want) {
			t.Fatalf("delivery order %v, want attach order %v", r.heard, want)
		}
	})

	t.Run("spread-and-moved", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		r := build(t, 0, scatter(rng, 120))
		for round := 0; round < 5; round++ {
			// Move a third of the receivers, most across a cell boundary.
			for i, s := range r.rxs {
				if rng.Intn(3) == 0 {
					s.pos = geo.Pt(rng.Float64()*150-50, rng.Float64()*150-50)
					r.rxs[i].radio.Moved()
				}
			}
			r.heard = r.heard[:0]
			r.tx.radio.Transmit(probeReq(r.tx.addr))
			r.e.RunContext(context.Background(), r.e.Now()+time.Second)
			if want := inRange(r, none); !slices.Equal(r.heard, want) {
				t.Fatalf("round %d: delivery order %v, want attach order %v", round, r.heard, want)
			}
		}
	})

	t.Run("compaction-mid-broadcast", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		pos := scatter(rng, 120)
		pos[0] = geo.Pt(1, 1) // the trigger hears the broadcast first
		r := build(t, 30, pos)
		// The first receiver detaches 90 others, past the compaction
		// threshold, and attaches a newcomer in range, which must not hear
		// a broadcast that began before it arrived.
		detached := func(i int) bool { return i >= 1 && i <= 90 && i%4 != 0 }
		late := &fakeStation{addr: ieee80211.MAC{0x02, 0xee, 0, 0, 0, 0}}
		r.rxs[0].onRecv = func(*ieee80211.Frame) {
			r.heard = append(r.heard, 0)
			if late.pos != (geo.Point{}) {
				return // the newcomer is in: the churn is done
			}
			late.pos = geo.Pt(2, 2)
			for i := 1; i <= 90; i++ {
				if detached(i) {
					r.rxs[i].radio.Detach()
				}
			}
			late.radio = attach(t, r.m.Attach, late)
		}
		txSlot := r.tx.radio.slot
		r.tx.radio.Transmit(probeReq(r.tx.addr))
		r.e.RunContext(context.Background(), time.Second)
		if r.tx.radio.slot == txSlot {
			t.Fatal("the broadcast did not compact the station table")
		}
		if want := inRange(r, detached); !slices.Equal(r.heard, want) {
			t.Fatalf("delivery order %v, want attach order %v", r.heard, want)
		}
		if len(r.tx.received) != 0 || len(late.received) != 0 {
			t.Fatalf("transmitter heard %d frames and the newcomer %d, want 0 and 0",
				len(r.tx.received), len(late.received))
		}

		// The next broadcast runs on the compacted table.
		r.heard = r.heard[:0]
		r.tx.radio.Transmit(probeReq(r.tx.addr))
		r.e.RunContext(context.Background(), 2*time.Second)
		if want := inRange(r, detached); !slices.Equal(r.heard, want) {
			t.Fatalf("after compaction: delivery order %v, want attach order %v", r.heard, want)
		}
		if len(late.received) != 1 {
			t.Fatalf("newcomer heard %d frames after compaction, want 1", len(late.received))
		}
	})
}

func TestPromiscuousHearsUnicast(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(2, 0)}
	mon.radio = attach(t, m.AttachPromiscuous, mon)
	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.RunContext(context.Background(), time.Second)
	if len(mon.received) != 1 {
		t.Errorf("monitor heard %d unicast frames, want 1", len(mon.received))
	}
	if len(dst.received) != 1 {
		t.Errorf("destination heard %d frames, want 1", len(dst.received))
	}
}

func TestPromiscuousHearsBroadcastOnce(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	e, m := newTestMedium(t, 50, tx)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(2, 0)}
	mon.radio = attach(t, m.AttachPromiscuous, mon)
	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	if len(mon.received) != 1 {
		t.Errorf("monitor heard broadcast %d times, want exactly 1", len(mon.received))
	}
}

func TestPromiscuousNotAddressable(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	e, m := newTestMedium(t, 50, tx)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(2, 0)}
	mon.radio = attach(t, m.AttachPromiscuous, mon)
	tx.radio.Transmit(probeResp(tx.addr, mon.addr, "Net"))
	e.RunContext(context.Background(), time.Second)
	// It still hears the frame — but through monitor mode, exactly once,
	// not through addressing.
	if len(mon.received) != 1 {
		t.Errorf("monitor received %d frames, want 1", len(mon.received))
	}
	if _, ok := m.index[macKey(mon.addr)]; !ok {
		t.Error("promiscuous station not reported attached")
	}
	mon.radio.Detach()
	if _, ok := m.index[macKey(mon.addr)]; ok {
		t.Error("promiscuous station still attached after Detach")
	}
}

func TestPromiscuousDuplicateMACRejected(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	_, m := newTestMedium(t, 50, tx)
	if _, err := m.AttachPromiscuous(&fakeStation{addr: mac(1)}); err == nil {
		t.Error("promiscuous attach with duplicate MAC succeeded")
	}
	mon := &fakeStation{addr: mac(9)}
	attach(t, m.AttachPromiscuous, mon)
	if _, err := m.Attach(&fakeStation{addr: mac(9)}); err == nil {
		t.Error("normal attach over promiscuous MAC succeeded")
	}
}

func TestPromiscuousOutOfRangeHearsNothing(t *testing.T) {
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	dst := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	e, m := newTestMedium(t, 50, tx, dst)
	mon := &fakeStation{addr: mac(9), pos: geo.Pt(500, 0)}
	mon.radio = attach(t, m.AttachPromiscuous, mon)
	tx.radio.Transmit(probeResp(tx.addr, dst.addr, "Net"))
	e.RunContext(context.Background(), time.Second)
	if len(mon.received) != 0 {
		t.Errorf("distant monitor heard %d frames", len(mon.received))
	}
}

func TestFrameLossTotal(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	m.SetFrameLoss(1.0, 1)
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	tx.radio = attach(t, m.Attach, tx)
	rx.radio = attach(t, m.Attach, rx)
	for i := 0; i < 50; i++ {
		tx.radio.Transmit(probeResp(tx.addr, rx.addr, "Net"))
	}
	e.RunContext(context.Background(), time.Minute)
	if len(rx.received) != 0 {
		t.Errorf("received %d frames at 100%% loss", len(rx.received))
	}
}

func TestFrameLossBroadcastNotRetried(t *testing.T) {
	// Broadcast frames carry no ACK, so loss hits them at face value.
	e := NewEngine()
	m := NewMedium(e, 50)
	m.SetFrameLoss(0.5, 2)
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	tx.radio = attach(t, m.Attach, tx)
	rx.radio = attach(t, m.Attach, rx)
	const n = 2000
	for i := 0; i < n; i++ {
		tx.radio.Transmit(probeReq(tx.addr))
	}
	e.RunContext(context.Background(), time.Hour)
	got := len(rx.received)
	if got < n*40/100 || got > n*60/100 {
		t.Errorf("received %d of %d broadcasts at 50%% loss, want ≈%d", got, n, n/2)
	}
}

func TestFrameLossUnicastRetriesRecover(t *testing.T) {
	// Unicast frames are ACKed and retried up to 7 times: at 50% loss,
	// effective delivery is 1-0.5^8 ≈ 99.6%.
	e := NewEngine()
	m := NewMedium(e, 50)
	m.SetFrameLoss(0.5, 2)
	reg := meter(m)
	tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
	tx.radio = attach(t, m.Attach, tx)
	rx.radio = attach(t, m.Attach, rx)
	const n = 1000
	for i := 0; i < n; i++ {
		tx.radio.Transmit(probeResp(tx.addr, rx.addr, "Net"))
	}
	e.RunContext(context.Background(), time.Hour)
	got := len(rx.received)
	if got < n*97/100 {
		t.Errorf("received %d of %d unicasts at 50%% loss with retries, want ≳97%%", got, n)
	}
	if reg.Snapshot().Value("medium_frames_retried") == 0 {
		t.Error("no retransmissions counted")
	}
}

func TestFrameLossDeterministic(t *testing.T) {
	run := func() int {
		e := NewEngine()
		m := NewMedium(e, 50)
		m.SetFrameLoss(0.3, 7)
		tx := &fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}
		rx := &fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}
		tx.radio = attach(t, m.Attach, tx)
		rx.radio = attach(t, m.Attach, rx)
		for i := 0; i < 500; i++ {
			tx.radio.Transmit(probeResp(tx.addr, rx.addr, "Net"))
		}
		e.RunContext(context.Background(), time.Hour)
		return len(rx.received)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same loss seed delivered %d vs %d frames", a, b)
	}
}

// tunedStation pins a fake station to a channel.
type tunedStation struct {
	fakeStation
	channel uint8
}

func (s *tunedStation) CurrentChannel() uint8 { return s.channel }

func TestChannelIsolation(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &tunedStation{fakeStation: fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}, channel: 6}
	same := &tunedStation{fakeStation: fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}, channel: 6}
	other := &tunedStation{fakeStation: fakeStation{addr: mac(3), pos: geo.Pt(2, 0)}, channel: 11}
	agnostic := &fakeStation{addr: mac(4), pos: geo.Pt(3, 0)}
	tx.radio = attach(t, m.Attach, tx)
	for _, s := range []Station{same, other, agnostic} {
		attach(t, m.Attach, s)
	}
	tx.radio.Transmit(probeReq(tx.addr))
	e.RunContext(context.Background(), time.Second)
	if len(same.received) != 1 {
		t.Errorf("same-channel station received %d", len(same.received))
	}
	if len(other.received) != 0 {
		t.Errorf("other-channel station received %d", len(other.received))
	}
	if len(agnostic.received) != 1 {
		t.Errorf("agnostic station received %d", len(agnostic.received))
	}
}

func TestChannelUnicastWrongChannelRetriesThenDrops(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	reg := meter(m)
	tx := &tunedStation{fakeStation: fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}, channel: 6}
	rx := &tunedStation{fakeStation: fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}, channel: 1}
	tx.radio = attach(t, m.Attach, tx)
	rx.radio = attach(t, m.Attach, rx)
	tx.radio.Transmit(probeResp(tx.addr, rx.addr, "Net"))
	e.RunContext(context.Background(), time.Second)
	if len(rx.received) != 0 {
		t.Errorf("cross-channel unicast delivered %d", len(rx.received))
	}
	if reg.Snapshot().Value("medium_frames_retried") == 0 {
		t.Error("no retries for un-ACKed cross-channel unicast")
	}
}

func TestChannelRetrySucceedsAfterReceiverHops(t *testing.T) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &tunedStation{fakeStation: fakeStation{addr: mac(1), pos: geo.Pt(0, 0)}, channel: 6}
	rx := &tunedStation{fakeStation: fakeStation{addr: mac(2), pos: geo.Pt(1, 0)}, channel: 1}
	tx.radio = attach(t, m.Attach, tx)
	rx.radio = attach(t, m.Attach, rx)
	f := probeResp(tx.addr, rx.addr, "Net")
	tx.radio.Transmit(f)
	// The receiver hops onto the transmitter's channel before the retry
	// budget runs out.
	e.Schedule(2*f.Airtime()+time.Microsecond, func() {
		rx.channel = 6
		rx.radio.Retuned()
	})
	e.RunContext(context.Background(), time.Second)
	if len(rx.received) != 1 {
		t.Errorf("retry after hop delivered %d, want 1", len(rx.received))
	}
}
