package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

// fanoutRadio is the handle surface TestMediumMatchesFullScan drives, on
// *Radio and on the full-scan reference's *scanRadio alike.
type fanoutRadio interface {
	Detach()
	Moved()
	Retuned()
	Transmit(*ieee80211.Frame) time.Duration
	BusyUntil() time.Duration
}

// scanMedium is the medium's definition as a full scan: every delivery
// walks every attached station in attach order and reads its live Pos and
// CurrentChannel, so its radios need neither Moved nor Retuned, and finds a
// unicast destination by its address among them. A broadcast's candidates
// are the radios attached and on its channel when it lands; positions do
// not change while a fan-out runs in the tests that use it, so the
// medium's cell bitsets select the same ones. A station that detaches and
// attaches again mid-fan-out has a new radio, which is no candidate.
type scanMedium struct {
	e        *Engine
	radius   float64
	stations []*scanRadio // attached, in attach order
	promisc  []*scanRadio
	loss     float64
	rng      *rand.Rand

	sent, delivered, retried int
}

// scanRadio is a scanMedium handle: it holds its own busy-until time, and
// its frames are lost once it detaches. Its attached flag is the
// membership check a fan-out makes on each candidate.
type scanRadio struct {
	r        *scanMedium
	s        Station
	promisc  bool
	attached bool
	busy     time.Duration
}

func newScanMedium(e *Engine, radius float64, loss float64, seed int64) *scanMedium {
	return &scanMedium{e: e, radius: radius, loss: loss, rng: rand.New(rand.NewSource(seed))}
}

// find returns the attached radio with the given address, nil if none.
func find(radios []*scanRadio, addr ieee80211.MAC) *scanRadio {
	for _, x := range radios {
		if x.s.Addr() == addr {
			return x
		}
	}
	return nil
}

func (r *scanMedium) attach(s Station, promisc bool) (*scanRadio, error) {
	if find(r.stations, s.Addr()) != nil || find(r.promisc, s.Addr()) != nil {
		return nil, errDuplicate
	}
	x := &scanRadio{r: r, s: s, promisc: promisc, attached: true}
	if promisc {
		r.promisc = append(r.promisc, x)
	} else {
		r.stations = append(r.stations, x)
	}
	return x, nil
}

func (x *scanRadio) Detach() {
	if x == nil || !x.attached {
		return
	}
	x.attached = false
	del := func(y *scanRadio) bool { return y == x }
	x.r.promisc = slices.DeleteFunc(x.r.promisc, del)
	x.r.stations = slices.DeleteFunc(x.r.stations, del)
}

func (x *scanRadio) Moved()   {}
func (x *scanRadio) Retuned() {}

func (x *scanRadio) BusyUntil() time.Duration {
	if x == nil || !x.attached {
		return 0
	}
	return x.busy
}

func (x *scanRadio) Transmit(f *ieee80211.Frame) time.Duration {
	if x == nil || !x.attached || x.promisc {
		return 0
	}
	r := x.r
	x.busy = max(r.e.Now(), x.busy) + f.Airtime()
	r.sent++
	r.schedule(x.busy, x, tunedTo(x.s), f, unicastRetryLimit)
	return x.busy
}

func (r *scanMedium) schedule(at time.Duration, tx *scanRadio, txCh uint8, f *ieee80211.Frame, retries int) {
	r.e.At(at, func() { r.deliver(tx, txCh, f, retries) })
}

// receives is Medium.receives on live state: in range, then the loss draw.
func (r *scanMedium) receives(txPos geo.Point, rx Station) bool {
	if txPos.Dist2(rx.Pos()) > r.radius*r.radius {
		return false
	}
	return r.loss == 0 || r.rng.Float64() < 1-r.loss
}

func (r *scanMedium) deliver(tx *scanRadio, txCh uint8, f *ieee80211.Frame, retries int) {
	if !tx.attached {
		return
	}
	txPos := tx.s.Pos()
	for _, rx := range slices.Clone(r.promisc) {
		if rx.attached && hears(txCh, tunedTo(rx.s)) && r.receives(txPos, rx.s) {
			rx.s.Receive(f)
		}
	}
	if f.DA.IsBroadcast() {
		var cands []*scanRadio
		for _, x := range r.stations {
			if x != tx && hears(txCh, tunedTo(x.s)) {
				cands = append(cands, x)
			}
		}
		for _, rx := range cands {
			if rx.attached && hears(txCh, tunedTo(rx.s)) && r.receives(txPos, rx.s) {
				r.delivered++
				rx.s.Receive(f)
			}
		}
		return
	}
	rx := find(r.stations, f.DA)
	if rx == nil {
		return
	}
	if hears(txCh, tunedTo(rx.s)) {
		if txPos.Dist2(rx.s.Pos()) > r.radius*r.radius {
			return
		}
		if r.loss == 0 || r.rng.Float64() < 1-r.loss {
			r.delivered++
			rx.s.Receive(f)
			return
		}
	}
	if retries > 0 {
		r.retried++
		r.schedule(r.e.Now()+f.Airtime(), tx, txCh, f, retries-1)
	}
}

var errDuplicate = errors.New("duplicate station")

// heard is one reception: when, by which station, which frame. The frame
// is a copy, since the medium reuses it after Receive; runFanout stamps a
// distinct Seq on every frame it transmits (up to 65,536 of them, far more
// than a trial sends), so comparing copies tells frames apart as strictly
// as comparing pointers would.
type heard struct {
	at time.Duration
	id int
	f  ieee80211.Frame
}

// scanAction is what a station does on its next reception, in the middle
// of a fan-out or a unicast burst: 0 detaches target, 1 retunes target and
// every third station after it to ch, 2 attaches a fresh station beside
// the receiver and then detaches target, 3 detaches every other attached
// station (enough, on a large table, to compact it), 4 detaches target and
// attaches a fresh station under its MAC beside the receiver, 5 rotates
// target's MAC.
type scanAction struct {
	kind   byte
	target int
	ch     uint8
}

// scanStation is an untuned test station of a scanWorld; scanTuner adds a
// channel.
type scanStation struct {
	w        *scanWorld
	id       int
	addr     ieee80211.MAC
	pos      geo.Point
	attached bool
	promisc  bool
	act      *scanAction
}

func (s *scanStation) Addr() ieee80211.MAC { return s.addr }
func (s *scanStation) Pos() geo.Point      { return s.pos }
func (s *scanStation) Receive(f *ieee80211.Frame) {
	s.w.log = append(s.w.log, heard{s.w.e.Now(), s.id, *f})
	if a := s.act; a != nil {
		s.act = nil
		s.w.midFanout++
		s.w.apply(s, *a)
	}
}

type scanTuner struct {
	scanStation
	ch uint8
}

func (s *scanTuner) CurrentChannel() uint8 { return s.ch }

// scanWorld is one medium, real or reference, with its stations; the
// test drives two in lockstep.
type scanWorld struct {
	e         *Engine
	attachTo  func(s Station, promisc bool) (fanoutRadio, error)
	none      fanoutRadio // a nil radio of the world's kind
	sts       []*scanStation
	as        []Station     // what was attached for sts[i]
	radios    []fanoutRadio // sts[i]'s latest radio, none before it attaches
	tuners    []*scanTuner
	log       []heard
	nextAddr  int
	midFanout int
	retired   []fanoutRadio // radios MAC rotations left behind
}

// add creates a station: kind 0–3 tuned to channel 1, 6, 11 or 0, 4
// untuned, 5 a promiscuous station tuned to ch.
func (w *scanWorld) add(kind byte, p geo.Point, ch uint8) *scanStation {
	w.nextAddr++
	s := &scanStation{w: w, id: len(w.sts), addr: ieee80211.MAC{0x02, 0, 0, 0, byte(w.nextAddr >> 8), byte(w.nextAddr)}, pos: p}
	var st Station = s
	var tu *scanTuner
	switch kind % 6 {
	case 0, 1, 2, 3:
		tu = &scanTuner{scanStation: *s, ch: []uint8{1, 6, 11, 0}[kind%6]}
		s = &tu.scanStation
		st = tu
	case 5:
		s.promisc = true
		tu = &scanTuner{scanStation: *s, ch: ch}
		s = &tu.scanStation
		st = tu
	}
	w.sts, w.as, w.tuners = append(w.sts, s), append(w.as, st), append(w.tuners, tu)
	w.radios = append(w.radios, w.none)
	return s
}

// attach attaches sts[i], recording whether the medium took it and the
// radio it handed out.
func (w *scanWorld) attach(i int) {
	r, err := w.attachTo(w.as[i], w.sts[i].promisc)
	if w.sts[i].attached = err == nil; err == nil {
		w.radios[i] = r
	}
}

func (w *scanWorld) detach(i int) {
	w.radios[i].Detach()
	w.sts[i].attached = false
}

func (w *scanWorld) retune(i int, ch uint8) {
	if tu := w.tuners[i]; tu != nil {
		tu.ch = ch
		w.radios[i].Retuned()
	}
}

func (w *scanWorld) apply(by *scanStation, a scanAction) {
	if len(w.sts) == 0 {
		return
	}
	target := a.target % len(w.sts)
	switch a.kind % 6 {
	case 0:
		w.detach(target)
	case 1:
		for i := target; i < len(w.sts); i += 3 {
			w.retune(i, a.ch)
		}
	case 2:
		// The newcomer lands at the end of the station table, which may
		// move it; a stale copy must not resurrect target.
		s := w.add(byte(target), by.pos.Add(geo.Pt(1, 1)), a.ch)
		w.attach(s.id)
		w.detach(target)
	case 3:
		for i, s := range w.sts {
			if s.attached && i%2 == 0 {
				w.detach(i)
			}
		}
	case 4:
		// The same MAC on another station, with another radio: frames
		// still in flight to it reach the newcomer.
		w.detach(target)
		s := w.add(byte(target), by.pos.Add(geo.Pt(1, 1)), a.ch)
		s.addr = w.sts[target].addr
		w.attach(s.id)
	case 5:
		w.rotate(target)
	}
}

// rotate rotates station i's MAC: it leaves, re-keys and comes back at the
// table's end with a new radio.
func (w *scanWorld) rotate(i int) {
	w.detach(i)
	w.retired = append(w.retired, w.radios[i])
	w.nextAddr++
	w.sts[i].addr = ieee80211.MAC{0x02, 1, 0, 0, byte(w.nextAddr >> 8), byte(w.nextAddr)}
	w.attach(i)
}

// scanCoord maps a byte onto [-100, 200) metres: with a 50 m radius, the
// stations spread over several cells and some are out of range.
func scanCoord(b byte) float64 { return float64(b)*300/256 - 100 }

var scanChannels = []uint8{0, 1, 6, 11}

// fanoutStats is what runFanout saw of the Medium: its compactions, the
// actions run mid-fan-out, and its station table's peak and final length.
type fanoutStats struct {
	compactions, midFanout int
	peakSlots, slots       int
}

// runFanout decodes ops four bytes at a time and applies each to a Medium
// and to the full-scan reference, both with frame loss at 30 %. It checks
// that every transmission returned the same end time and, after every
// operation, that every radio the stations have held reports the same
// BusyUntil. At the end it checks that they delivered the same frames to
// the same stations at the same times in the same order, counted the same,
// and left the loss RNG at the same position.
func runFanout(t *testing.T, ops []byte, seed int64) fanoutStats {
	t.Helper()
	const radius, loss = 50.0, 0.3
	real, ref := NewEngine(), NewEngine()
	m := NewMedium(real, radius)
	m.SetFrameLoss(loss, seed)
	reg := meter(m)
	sm := newScanMedium(ref, radius, loss, seed)
	worlds := [2]*scanWorld{
		{e: real, none: (*Radio)(nil), attachTo: func(s Station, promisc bool) (fanoutRadio, error) {
			attach := m.Attach
			if promisc {
				attach = m.AttachPromiscuous
			}
			r, err := attach(s)
			return r, err
		}},
		{e: ref, none: (*scanRadio)(nil), attachTo: func(s Station, promisc bool) (fanoutRadio, error) {
			r, err := sm.attach(s, promisc)
			return r, err
		}},
	}
	each := func(fn func(w *scanWorld)) {
		for _, w := range worlds {
			fn(w)
		}
	}
	var seq uint16
	var peak int
	// transmit sends f through station i's radio, whatever f's SA.
	transmit := func(i int, f *ieee80211.Frame) {
		seq++
		f.Seq = seq
		var done [2]time.Duration
		for k, w := range worlds {
			done[k] = w.radios[i].Transmit(f)
		}
		if done[0] != done[1] {
			t.Fatalf("transmission %d from station %d ends at %v on the medium, %v on the full scan", seq, i, done[0], done[1])
		}
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		op, a, b, c := ops[0]%13, ops[1], ops[2], ops[3]
		n := len(worlds[0].sts)
		switch {
		case op <= 1 && n >= 300:
			// Enough for compactions; more only slows the full scan.
		case op == 0:
			each(func(w *scanWorld) { w.attach(w.add(a, geo.Pt(scanCoord(b), scanCoord(c)), scanChannels[a%4]).id) })
		case op == 1:
			// A batch, so the table grows past the compaction threshold.
			rng := rand.New(rand.NewSource(int64(b)<<8 | int64(c)))
			for k := 0; k <= int(a%32); k++ {
				kind, x, y := byte(rng.Intn(6)), byte(rng.Intn(256)), byte(rng.Intn(256))
				each(func(w *scanWorld) { w.attach(w.add(kind, geo.Pt(scanCoord(x), scanCoord(y)), scanChannels[x%4]).id) })
			}
		case n == 0:
		case op == 2:
			each(func(w *scanWorld) { w.detach(int(a) % n) })
		case op == 3:
			each(func(w *scanWorld) {
				i := int(a) % n
				w.sts[i].pos = geo.Pt(scanCoord(b), scanCoord(c))
				w.radios[i].Moved()
			})
		case op == 4:
			each(func(w *scanWorld) { w.retune(int(a)%n, scanChannels[b%4]) })
		case op == 5:
			i := int(a) % n
			transmit(i, probeReq(worlds[0].sts[i].addr))
		case op == 6:
			i := int(a) % n
			transmit(i, probeResp(worlds[0].sts[i].addr, worlds[0].sts[int(b)%n].addr, "Net"))
		case op == 7:
			act := scanAction{kind: b, target: int(c), ch: scanChannels[c%4]}
			each(func(w *scanWorld) { w.sts[int(a)%n].act = &act })
		case op == 8:
			each(func(w *scanWorld) {
				w.e.RunContext(context.Background(), w.e.Now()+(time.Duration(a)+1)*100*time.Microsecond)
			})
		case op == 9:
			each(func(w *scanWorld) { w.rotate(int(a) % n) })
		case op == 10:
			each(func(w *scanWorld) {
				if i := int(a) % n; !w.sts[i].attached {
					w.attach(i)
				}
			})
		case op == 11:
			// A spoofed frame: the radio of one station, another's SA.
			sts := worlds[0].sts
			transmit(int(a)%n, probeResp(sts[int(b)%n].addr, sts[int(c)%n].addr, "Net"))
		case op == 12:
			// An attacker's reply burst: 2–40 probe responses to one DA,
			// queued back to back. Ops that follow before they have all
			// landed (detaches, re-attaches, rotations, compactions, or
			// actions the DA runs on a reception) land mid-burst.
			sts := worlds[0].sts
			i, da := int(a)%n, sts[int(b)%n].addr
			for range 2 + int(c)%39 {
				transmit(i, probeResp(sts[i].addr, da, "Net"))
			}
		}
		for i, s := range worlds[0].sts {
			if s.addr != worlds[1].sts[i].addr {
				t.Fatalf("station %d is %v on the medium, %v on the full scan", i, s.addr, worlds[1].sts[i].addr)
			}
			checkBusy(t, worlds[0].radios[i], worlds[1].radios[i])
		}
		for i, r := range worlds[0].retired {
			checkBusy(t, r, worlds[1].retired[i])
		}
		peak = max(peak, len(m.order))
	}
	each(func(w *scanWorld) { w.e.RunContext(context.Background(), w.e.Now()+time.Hour) })

	got, want := worlds[0], worlds[1]
	for i := range min(len(got.log), len(want.log)) {
		if got.log[i] != want.log[i] {
			t.Fatalf("reception %d: medium %+v, full scan %+v", i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("medium made %d receptions, full scan %d", len(got.log), len(want.log))
	}
	snap := reg.Snapshot()
	var sent, delivered int
	for _, sub := range []ieee80211.FrameSubtype{ieee80211.SubtypeProbeRequest, ieee80211.SubtypeProbeResponse} {
		sent += int(snap.Value("medium_frames_sent", "subtype", sub.String()))
		delivered += int(snap.Value("medium_frames_delivered", "subtype", sub.String()))
	}
	if retried := int(snap.Value("medium_frames_retried")); sent != sm.sent || delivered != sm.delivered || retried != sm.retried {
		t.Fatalf("sent/delivered/retried: medium %d/%d/%d, full scan %d/%d/%d",
			sent, delivered, retried, sm.sent, sm.delivered, sm.retried)
	}
	if g, w := m.lossRNG.Int63(), sm.rng.Int63(); g != w {
		t.Fatalf("loss RNG out of step: next draw %d on the medium, %d on the full scan", g, w)
	}
	return fanoutStats{
		compactions: int(snap.Value("medium_compactions")),
		midFanout:   got.midFanout,
		peakSlots:   peak,
		slots:       len(m.order),
	}
}

// checkBusy compares BusyUntil for one station's radio in both worlds of
// runFanout.
func checkBusy(t *testing.T, got, want fanoutRadio) {
	t.Helper()
	if g, w := got.BusyUntil(), want.BusyUntil(); g != w {
		t.Fatalf("BusyUntil: medium %v, full scan %v", g, w)
	}
}

// TestMediumMatchesFullScan drives random stations — tuned to channels 1,
// 6 and 11, tuned to channel 0, untuned and promiscuous — through random
// moves, retunes, MAC rotations, detach/attach churn and compactions, with
// broadcasts, unicasts, unicast bursts, spoofed frames and transmissions
// through detached and never-attached radios under frame loss, and Receive
// callbacks that detach, retune, re-key and attach stations mid-fan-out. It checks every
// delivery, every transmission's end time and every radio's busy-until
// time against a full scan of the attached stations.
func TestMediumMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var compactions int
	var mid int
	for trial := 0; trial < 60; trial++ {
		ops := make([]byte, 0, 4*400)
		for k := 0; k < 400; k++ {
			op := byte(rng.Intn(13))
			if k < 4 {
				op = 1 // start from a crowd
			}
			ops = append(ops, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		st := runFanout(t, ops, int64(trial))
		compactions += st.compactions
		mid += st.midFanout
	}
	if compactions == 0 || mid == 0 {
		t.Fatalf("%d compactions and %d mid-fan-out actions: the trials miss what they test", compactions, mid)
	}
	for _, sc := range slices.Concat(wordBoundaryScripts(), unicastBurstScripts()) {
		runFanout(t, sc.ops, 3)
	}
}

// fanoutScript builds runFanout programs op by op.
type fanoutScript []byte

func (s *fanoutScript) op(op, a, b, c byte) { *s = append(*s, op, a, b, c) }

// scanByte is the inverse of scanCoord: the byte whose coordinate is
// nearest x.
func scanByte(x float64) byte { return byte(math.Round((x + 100) * 256 / 300)) }

// crowd attaches n stations of the given kind, station i on the grid of
// 40×40 spots that fills the 50 m cell [0, 50)², so none lands in another
// cell. With no detaches before it, station i holds slot i.
func (s *fanoutScript) crowd(n int, kind byte) {
	for i := range n {
		s.op(0, kind, scanByte(1+float64(i%40)), scanByte(1+float64(i*7%40)))
	}
}

// broadcast transmits a probe request from station i and lets it land.
func (s *fanoutScript) broadcast(i int) {
	s.op(5, byte(i), 0, 0)
	s.op(8, 255, 0, 0)
}

// boundaryScript is a named runFanout program and what it must reach: a
// station table of more than peakOver slots at some point, one of at most
// endAtMost slots (with at least one compaction) at the end when that is
// positive, and at least midFanout actions run mid-fan-out.
type boundaryScript struct {
	name      string
	ops       []byte
	peakOver  int
	endAtMost int
	midFanout int
}

// wordBoundaryScripts are runFanout programs that put the broadcast
// index's bitsets at their 64-slot word boundaries: tables just past 64
// and 128 slots, transmitters in slots 63, 64 and 127, a cell whose only
// member is the table's highest slot, a compaction that shrinks a
// three-word table to one word, and receivers retuned out of and into the
// transmitter's channel mask in the middle of a fan-out.
func wordBoundaryScripts() []boundaryScript {
	var out []boundaryScript

	// Stations on channels 1, 6, 11 and 0 and untuned, scattered over the
	// 3×3 neighbourhood and beyond; broadcasts as the table passes 64 and
	// 128 slots, from the slots either side of each boundary.
	var past fanoutScript
	rng := rand.New(rand.NewSource(5))
	for i := range 131 {
		past.op(0, byte(i%5), byte(rng.Intn(256)), byte(rng.Intn(256)))
		switch i {
		case 64:
			past.broadcast(63)
			past.broadcast(64)
		case 128:
			past.broadcast(127)
			past.broadcast(128)
		}
	}
	for _, tx := range []int{0, 63, 64, 127, 128, 130} {
		past.broadcast(tx)
	}
	out = append(out, boundaryScript{name: "tables-past-64-and-128", ops: past, peakOver: 128})

	// The highest slot alone in its cell, at each side of a boundary:
	// slot 63 ends a full word, 64 is a word's only bit, and so on.
	for _, hi := range []int{63, 64, 127, 128} {
		var lone fanoutScript
		lone.crowd(hi, 3)
		lone.op(0, 3, scanByte(60), scanByte(25)) // cell (1, 0)
		lone.broadcast(39)                        // at (39, 34), in range of it
		lone.broadcast(hi)
		lone.broadcast(hi - 1)
		out = append(out, boundaryScript{name: fmt.Sprintf("lone-highest-slot-%d", hi), ops: lone, peakOver: hi})
	}

	// 140 agnostic stations in one cell, three words; a mid-fan-out
	// detach of every other one compacts the table after the broadcast,
	// then detaches outside delivery compact it further, to one word.
	var shrink fanoutScript
	shrink.crowd(140, 3)
	shrink.op(7, 1, 3, 0)
	shrink.broadcast(139)
	shrink.broadcast(137) // in case frame loss spared station 1
	for i := 1; i < 120; i += 2 {
		shrink.op(2, byte(i), 0, 0)
	}
	shrink.broadcast(139)
	shrink.broadcast(121)
	shrink.crowd(3, 0)
	shrink.broadcast(141)
	out = append(out, boundaryScript{name: "compaction-below-cell-length", ops: shrink, peakOver: 128, endAtMost: 64, midFanout: 1})

	// 130 stations on channel 1. Station 0 hears the broadcast first and
	// retunes station 103 and every third after it to channel 11: out of
	// the mask, past the first word. The next broadcast's first receiver
	// retunes some back to channel 1, into the mask too late to count.
	var retune fanoutScript
	retune.crowd(130, 0)
	// Frame loss may spare station 0 a broadcast, so each action gets
	// several on channel 1.
	retune.op(7, 0, 1, 103) // 103 % 4 == 3: channel 11
	for _, tx := range []int{129, 128, 126} {
		retune.broadcast(tx)
	}
	retune.op(7, 0, 1, 109) // 109 % 4 == 1: channel 1
	for _, tx := range []int{64, 65, 66, 68} {
		retune.broadcast(tx)
	}
	out = append(out, boundaryScript{name: "retune-out-of-mask-mid-fanout", ops: retune, peakOver: 128, midFanout: 2})
	return out
}

// burst queues an n-response unicast burst from station tx to station da.
func (s *fanoutScript) burst(tx, da, n int) { s.op(12, byte(tx), byte(da), byte(n-2)) }

// unicastBurstScripts are runFanout programs that send 40-response bursts
// to one DA, the way an attacker answers a phone's probe, and change the
// DA while the burst is in flight: it detaches, re-attaches under its MAC
// with a new radio, is replaced by another station with its MAC, rotates
// its MAC, or moves to another slot in a compaction. Between bursts the
// DA changes, to a promiscuous station's MAC and to one no station holds.
func unicastBurstScripts() []boundaryScript {
	var out []boundaryScript
	// land1ms lets the first few responses of a burst land.
	land1ms := func(s *fanoutScript) { s.op(8, 9, 0, 0) }
	landAll := func(s *fanoutScript) { s.op(8, 255, 0, 0) }

	// Station 4 is promiscuous on channel 1 (kind 5 with a = 5); the rest
	// are channel-agnostic. Station 3 detaches before the last burst.
	var next fanoutScript
	next.crowd(4, 3)
	next.op(0, 5, scanByte(3), scanByte(3))
	next.burst(0, 1, 40)
	landAll(&next)
	next.burst(0, 2, 40)
	next.burst(3, 1, 40)
	landAll(&next)
	next.burst(0, 4, 40)
	next.op(2, 3, 0, 0)
	next.burst(0, 3, 40)
	next.burst(0, 1, 2)
	out = append(out, boundaryScript{name: "burst-then-next-da", ops: next})

	for _, c := range []struct {
		name string
		mid  func(s *fanoutScript)
		acts int
	}{
		{"detach-da-mid-burst", func(s *fanoutScript) { s.op(2, 1, 0, 0) }, 0},
		{"reattach-da-mid-burst", func(s *fanoutScript) { s.op(2, 1, 0, 0); s.op(10, 1, 0, 0) }, 0},
		{"rotate-da-mid-burst", func(s *fanoutScript) { s.op(9, 1, 0, 0) }, 0},
		// Armed on the DA, so they run in its Receive, mid-delivery.
		{"da-replaced-under-its-mac", func(s *fanoutScript) { s.op(7, 1, 4, 1) }, 1},
		{"da-rotates-on-reception", func(s *fanoutScript) { s.op(7, 1, 5, 1) }, 1},
	} {
		var sc fanoutScript
		sc.crowd(4, 3)
		sc.burst(0, 1, 40)
		land1ms(&sc)
		c.mid(&sc)
		landAll(&sc)
		// Station 1's MAC now, whatever it became.
		sc.burst(0, 1, 40)
		landAll(&sc)
		out = append(out, boundaryScript{name: c.name, ops: sc, midFanout: c.acts})
	}

	// 140 stations; the DA (slot 3) detaches every even-numbered station
	// on a reception from the middle of a burst, which compacts the table
	// and moves the DA to slot 1 before the rest of the burst lands.
	var compact fanoutScript
	compact.crowd(140, 3)
	compact.burst(1, 3, 40)
	land1ms(&compact)
	compact.op(7, 3, 3, 0)
	landAll(&compact)
	compact.burst(1, 3, 40)
	out = append(out, boundaryScript{name: "compaction-mid-burst", ops: compact, peakOver: 128, endAtMost: 70, midFanout: 1})
	return out
}

// runScripts runs scripts against the full scan and checks that each
// reached the table sizes and mid-delivery actions it is about.
func runScripts(t *testing.T, scripts []boundaryScript) {
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			st := runFanout(t, sc.ops, 7)
			if st.peakSlots <= sc.peakOver {
				t.Errorf("station table peaked at %d slots, want over %d", st.peakSlots, sc.peakOver)
			}
			if sc.endAtMost > 0 && (st.slots > sc.endAtMost || st.compactions == 0) {
				t.Errorf("station table ends at %d slots after %d compactions, want at most %d after some",
					st.slots, st.compactions, sc.endAtMost)
			}
			if st.midFanout < sc.midFanout {
				t.Errorf("%d actions ran mid-fan-out, want %d", st.midFanout, sc.midFanout)
			}
		})
	}
}

// TestMediumFanoutWordBoundaries runs wordBoundaryScripts against the
// full scan and checks that each reached the table sizes it is about.
func TestMediumFanoutWordBoundaries(t *testing.T) { runScripts(t, wordBoundaryScripts()) }

// TestMediumUnicastBurstsMatchFullScan runs unicastBurstScripts against
// the full scan: every response of a burst reaches the radio its DA names
// when it lands, however the DA changed since the burst began.
func TestMediumUnicastBurstsMatchFullScan(t *testing.T) { runScripts(t, unicastBurstScripts()) }

// FuzzMediumFanout is TestMediumMatchesFullScan over fuzzed operations.
func FuzzMediumFanout(f *testing.F) {
	f.Add([]byte{1, 31, 1, 2, 7, 0, 3, 5, 5, 0, 0, 0, 1, 20, 9, 9, 7, 3, 2, 4, 5, 3, 0, 0, 9, 4, 0, 0, 5, 4, 0, 0}, int64(1))
	f.Add([]byte{1, 31, 7, 7, 1, 31, 8, 8, 1, 31, 9, 9, 7, 0, 3, 0, 5, 1, 0, 0, 6, 2, 3, 0, 8, 9, 0, 0, 5, 0, 0, 0}, int64(2))
	for _, sc := range slices.Concat(wordBoundaryScripts(), unicastBurstScripts()) {
		f.Add([]byte(sc.ops), int64(3))
	}
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		runFanout(t, ops, seed)
	})
}
