package sim

import (
	"fmt"
	"math/rand"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
)

// ChannelTuner is an optional Station extension for radios parked on (or
// hopping between) 802.11 channels. A station that implements it transmits
// and receives only on its current channel; stations that do not are
// channel-agnostic — they hear and reach every channel, which is the right
// model for monitor-mode sniffers and for tests that do not care.
//
// The medium reads CurrentChannel when the station attaches and again
// whenever Medium.Retuned reports a change; it never asks on the delivery
// path. A tuner whose channel changes while attached must report each
// change through Retuned, or it keeps hearing its old channel.
type ChannelTuner interface {
	// CurrentChannel returns the channel the radio is tuned to right now
	// (0 behaves as channel-agnostic).
	CurrentChannel() uint8
}

// Station is anything attached to the medium: clients, attackers,
// legitimate APs.
type Station interface {
	// Addr returns the station's MAC address. It must be unique on the
	// medium and stable for the station's lifetime.
	Addr() ieee80211.MAC
	// Pos returns the station's current position. The medium reads it when
	// the station attaches and whenever Medium.Moved reports a change, and
	// keeps that position for broadcast fan-out and for the station's own
	// transmissions; only a unicast receiver's and a monitor-mode
	// station's positions are read live at delivery time. A station whose position changes while attached must
	// report each change through Medium.Moved, and a ChannelTuner each
	// channel change through Medium.Retuned — the medium's spatial delivery
	// index relies on both to keep broadcast fan-out exact.
	Pos() geo.Point
	// Receive delivers a frame that arrived at the station's antenna. The
	// medium owns f: it is valid only during the call and is reused once
	// Receive returns, so a station copies whatever it keeps.
	Receive(f *ieee80211.Frame)
}

// Medium is a shared broadcast RF channel. Frames sent by one station are
// delivered, after their airtime, to every other attached station within
// radio range of the transmitter at delivery time. Per-transmitter
// serialization models the half-duplex radio: a station's next frame starts
// only after its previous one finished, which is exactly what limits an
// attacker to ~40 probe responses per 10 ms scan window.
//
// Broadcast delivery iterates stations in attach order, so runs are
// deterministic for a given seed. Each station gets a slot when it attaches,
// and the medium resolves its position and channel into per-slot arrays
// then, so the delivery path makes no interface call or type assertion
// until Receive. One spatial hash grid per channel in use holds the slots
// tuned to it (channel 0 holds the channel-agnostic ones); a broadcast
// merges the neighbouring cells of its channel's grid and the agnostic
// grid, so fan-out cost scales with the local density of its own channel
// instead of the whole population. Every grid cell keeps its slots
// ascending, so the merge yields the receivers in attach order without a
// sort.
//
// A broadcast's candidate set is fixed when its query runs: a station
// that attaches, walks into reach or tunes to the channel while the
// fan-out is under way does not hear it. Each candidate's channel,
// position and attachment are read again when its turn comes, so one that
// detaches, retunes or walks out of range first does not hear it either.
type Medium struct {
	engine *Engine

	// radius is the distance in metres within which a receiver hears a
	// transmitter. It also sizes the spatial grid cells and the broadcast
	// candidate query.
	radius float64

	// order holds attached stations in attach order, with pos and ch
	// their positions and channels as last reported and busy the time
	// each one's transmit queue drains; index maps a packed MAC (macKey)
	// to its slot. Detached slots are nil and recycled lazily, so an
	// ascending slot scan is an attach-order scan.
	order []Station
	pos   []geo.Point
	ch    []uint8
	busy  []time.Duration
	index map[uint64]int

	// grids[c] buckets the slots tuned to channel c by position for
	// broadcast delivery, each cell in ascending slot order, so slot i
	// sits in grids[ch[i]] at the cell of pos[i]; inUse lists the grids
	// created so far, the agnostic grids[0] first.
	grids []*geo.HashGrid
	inUse []*geo.HashGrid
	// scratch is the reusable broadcast candidate buffer, and renumber the
	// reusable slot map of a compaction. Delivery never nests (events run
	// one at a time and Receive callbacks only schedule future work), so a
	// single buffer is safe.
	scratch  []int32
	renumber []int32
	// delivering is set while a delivery runs Receive callbacks. A Detach
	// in a callback defers compaction to the delivery's end, so slot
	// numbers — the transmitter's and the broadcast candidates' — hold for
	// the whole delivery.
	delivering bool
	// compactGen counts station-table compactions; a slot number taken
	// under an older generation may name another station.
	compactGen uint64

	// promisc holds monitor-mode stations and promiscCh their channels:
	// they hear every in-range frame regardless of its destination, and
	// are never addressable.
	promisc      []Station
	promiscCh    []uint8
	promiscIndex map[uint64]int

	// busyUntil holds the busy-until times of transmitters that are not
	// attached (promiscuous stations, or a MAC that transmits before it
	// attaches); Attach moves a MAC's entry into busy.
	busyUntil map[uint64]time.Duration

	// deliverPool recycles the frame-delivery events TransmitFrom and the
	// retry paths schedule. Each event carries its frame by value, so
	// steady-state transmission allocates neither frames nor closures.
	deliverPool []*deliverEvent

	// loss is the independent per-delivery drop probability; lossRNG
	// draws for it.
	loss    float64
	lossRNG *rand.Rand

	// FramesSent counts every transmission accepted by the medium.
	FramesSent int
	// FramesDelivered counts every successful delivery to a receiver.
	FramesDelivered int
	// FramesRetried counts unicast retransmissions after a lost frame.
	FramesRetried int

	// Observability handles, indexed by frame subtype; all nil when
	// uninstrumented (nil handles no-op).
	mSent        [16]*obs.Counter
	mDelivered   [16]*obs.Counter
	mLost        [16]*obs.Counter
	mRetried     *obs.Counter
	mCompactions *obs.Counter
	journal      *obs.Journal
}

// meteredSubtypes is every management subtype the model transmits; the
// medium pre-creates one counter set per subtype so the per-frame hot path
// never touches the registry.
var meteredSubtypes = []ieee80211.FrameSubtype{
	ieee80211.SubtypeAssocRequest,
	ieee80211.SubtypeAssocResponse,
	ieee80211.SubtypeProbeRequest,
	ieee80211.SubtypeProbeResponse,
	ieee80211.SubtypeBeacon,
	ieee80211.SubtypeAuth,
	ieee80211.SubtypeDeauth,
}

// Instrument attaches the medium to an observability runtime: per-subtype
// transmit/deliver/loss counters (medium_frames_sent, medium_frames_delivered,
// medium_frames_lost), retry and compaction counters, and — when the
// runtime carries a journal — a frame-loss event per lost unicast frame.
func (m *Medium) Instrument(rt *obs.Runtime) {
	if rt == nil {
		return
	}
	m.journal = rt.Journal
	if rt.Metrics == nil {
		return
	}
	for _, s := range meteredSubtypes {
		m.mSent[s&0xf] = rt.Metrics.Counter("medium_frames_sent", "subtype", s.String())
		m.mDelivered[s&0xf] = rt.Metrics.Counter("medium_frames_delivered", "subtype", s.String())
		m.mLost[s&0xf] = rt.Metrics.Counter("medium_frames_lost", "subtype", s.String())
	}
	m.mRetried = rt.Metrics.Counter("medium_frames_retried")
	m.mCompactions = rt.Metrics.Counter("medium_compactions")
}

// NewMedium returns a medium on engine where stations hear each other
// within radius metres (unit-disk propagation). The paper's Raspberry Pi
// at 100 mW covers roughly a 50 m disk in open indoor space. radius must
// be positive; NewMedium panics otherwise.
func NewMedium(engine *Engine, radius float64) *Medium {
	// One cell per range disk: a 3×3 neighborhood always covers the
	// transmitter's reach, and typical venues keep the crowd within a
	// handful of cells.
	agnostic, err := geo.NewHashGrid(radius)
	if err != nil {
		panic("sim: medium radius: " + err.Error())
	}
	return &Medium{
		engine:       engine,
		radius:       radius,
		grids:        []*geo.HashGrid{agnostic},
		inUse:        []*geo.HashGrid{agnostic},
		index:        make(map[uint64]int),
		promiscIndex: make(map[uint64]int),
		busyUntil:    make(map[uint64]time.Duration),
	}
}

// macKey packs a MAC into the low 48 bits of a uint64, the medium's map
// key: Go hashes a uint64 key on its fast path, a 6-byte array through
// the generic one.
func macKey(a ieee80211.MAC) uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 |
		uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// tunedTo returns the channel s is tuned to, 0 for a channel-agnostic
// station. Only Attach, AttachPromiscuous and Retuned ask.
func tunedTo(s Station) uint8 {
	if t, ok := s.(ChannelTuner); ok {
		return t.CurrentChannel()
	}
	return 0
}

// grid returns channel c's spatial grid, creating it on first use.
func (m *Medium) grid(c uint8) *geo.HashGrid {
	if n := int(c) + 1; n > len(m.grids) {
		m.grids = append(m.grids, make([]*geo.HashGrid, n-len(m.grids))...)
	}
	g := m.grids[c]
	if g == nil {
		g, _ = geo.NewHashGrid(m.radius) // NewMedium checked the radius
		m.grids[c] = g
		m.inUse = append(m.inUse, g)
	}
	return g
}

// SetFrameLoss drops each frame delivery independently with probability p
// (collisions, fading, interference). Draws come from the given seed, so
// lossy runs stay reproducible. Call it before the first transmission.
func (m *Medium) SetFrameLoss(p float64, seed int64) {
	m.loss = p
	m.lossRNG = rand.New(rand.NewSource(seed))
}

// inRange reports whether a receiver at rx hears a transmitter at tx.
func (m *Medium) inRange(tx, rx geo.Point) bool {
	return tx.Dist2(rx) <= m.radius*m.radius
}

// dropped draws whether frame loss takes one in-range delivery, counting
// it as lost under the given subtype. Without loss it draws nothing.
func (m *Medium) dropped(sub ieee80211.FrameSubtype) bool {
	keep := 1 - m.loss
	if keep < 1 && m.lossRNG.Float64() >= keep {
		m.mLost[sub&0xf].Inc()
		return true
	}
	return false
}

// receives reports whether one delivery from tx to rx succeeds: the
// receiver is in range and frame loss spares it.
func (m *Medium) receives(tx, rx geo.Point, sub ieee80211.FrameSubtype) bool {
	return m.inRange(tx, rx) && !m.dropped(sub)
}

// Attach registers s on the medium. Attaching a MAC twice is a programming
// error and returns one.
func (m *Medium) Attach(s Station) error {
	if err := m.checkNew(s.Addr()); err != nil {
		return err
	}
	i := len(m.order)
	p, c, key := s.Pos(), tunedTo(s), macKey(s.Addr())
	m.index[key] = i
	m.order = append(m.order, s)
	m.pos = append(m.pos, p)
	m.ch = append(m.ch, c)
	m.busy = append(m.busy, m.busyUntil[key])
	delete(m.busyUntil, key)
	m.grid(c).Insert(int32(i), p)
	return nil
}

// AttachPromiscuous registers s as a monitor-mode station: it receives
// every frame whose transmitter is in range — unicast or broadcast, to
// anyone — exactly like a sniffer in monitor mode. Promiscuous stations
// are not addressable (frames sent to their MAC go nowhere) and should not
// transmit.
func (m *Medium) AttachPromiscuous(s Station) error {
	if err := m.checkNew(s.Addr()); err != nil {
		return err
	}
	m.promiscIndex[macKey(s.Addr())] = len(m.promisc)
	m.promisc = append(m.promisc, s)
	m.promiscCh = append(m.promiscCh, tunedTo(s))
	return nil
}

func (m *Medium) checkNew(addr ieee80211.MAC) error {
	if _, dup := m.index[macKey(addr)]; dup {
		return fmt.Errorf("sim: station %v already attached", addr)
	}
	if _, dup := m.promiscIndex[macKey(addr)]; dup {
		return fmt.Errorf("sim: station %v already attached promiscuously", addr)
	}
	return nil
}

// Detach removes the station with the given address; frames already in
// flight to it are dropped at delivery time. Detaching an unknown address
// is a no-op so departing clients can detach unconditionally.
func (m *Medium) Detach(addr ieee80211.MAC) {
	key := macKey(addr)
	if pi, ok := m.promiscIndex[key]; ok {
		m.promisc[pi] = nil
		delete(m.promiscIndex, key)
		return
	}
	i, ok := m.index[key]
	if !ok {
		return
	}
	m.unbucket(i)
	m.order[i] = nil
	m.busy[i] = 0
	delete(m.index, key)
	if !m.delivering {
		m.maybeCompact()
	}
}

// Moved records a station's new position and re-buckets it in the spatial
// delivery index. Every station whose position changes while attached
// must call it (or be moved through it); a stale position can hide the
// station from broadcasts it should hear, or let it hear ones it should
// not. A move during a broadcast's fan-out counts for that fan-out's range
// check, though not for its candidate set. Unknown addresses are a no-op,
// so movers may report unconditionally — before Attach, after Detach, or
// for promiscuous stations (which are not spatially indexed).
func (m *Medium) Moved(addr ieee80211.MAC) {
	i, ok := m.index[macKey(addr)]
	if !ok {
		return
	}
	g, p := m.grids[m.ch[i]], m.order[i].Pos()
	g.Move(int32(i), g.Key(m.pos[i]), p)
	m.pos[i] = p
}

// Retuned records a ChannelTuner's new channel and moves it to that
// channel's spatial grid. Every tuner whose channel changes while attached
// must call it; until it does, the medium delivers to and from the station
// on its old channel. A retune during a broadcast's fan-out counts for
// that fan-out's channel check, though not for its candidate set. Like
// Moved, it is a no-op for unknown addresses and cheap when the channel is
// unchanged, so tuners may report unconditionally.
func (m *Medium) Retuned(addr ieee80211.MAC) {
	key := macKey(addr)
	if pi, ok := m.promiscIndex[key]; ok {
		m.promiscCh[pi] = tunedTo(m.promisc[pi])
		return
	}
	i, ok := m.index[key]
	if !ok {
		return
	}
	c := tunedTo(m.order[i])
	if c == m.ch[i] {
		return
	}
	m.unbucket(i)
	m.ch[i] = c
	m.grid(c).Insert(int32(i), m.pos[i])
}

// unbucket removes slot i from its channel's grid.
func (m *Medium) unbucket(i int) {
	g := m.grids[m.ch[i]]
	g.Remove(int32(i), g.Key(m.pos[i]))
}

// maybeCompact drops the station table's tombstones once more than half
// its slots are, preserving attach order. It runs between deliveries only,
// so it rewrites the per-slot arrays in place, and renumbers every grid's
// slots through a monotone map, which keeps each cell ascending.
func (m *Medium) maybeCompact() {
	if len(m.order) < 64 || len(m.index)*2 > len(m.order) {
		return
	}
	m.mCompactions.Inc()
	m.compactGen++
	renumber := m.renumber[:0]
	n := 0
	for i, s := range m.order {
		renumber = append(renumber, int32(n))
		if s == nil {
			continue
		}
		m.order[n], m.pos[n], m.ch[n], m.busy[n] = s, m.pos[i], m.ch[i], m.busy[i]
		m.index[macKey(s.Addr())] = n
		n++
	}
	clear(m.order[n:])
	m.order, m.pos, m.ch, m.busy = m.order[:n], m.pos[:n], m.ch[:n], m.busy[:n]
	for _, g := range m.inUse {
		g.Renumber(renumber)
	}
	m.renumber = renumber
}

// Transmit queues f for transmission by the station with MAC f.SA. The
// frame goes on air once the transmitter's previous frame has finished
// (half-duplex serialization) and is delivered after its airtime to every
// in-range station — to the unicast destination only, or to everyone for
// broadcast destinations. Transmit returns the time the frame will finish
// transmitting. An attached transmitter's channel and busy-until time sit
// in its slot, so the call costs one MAC lookup.
//
// The medium copies *f before Transmit returns, so the caller may reuse f
// or keep it on its stack.
func (m *Medium) Transmit(f *ieee80211.Frame) time.Duration {
	return m.TransmitFrom(f.SA, f)
}

// TransmitFrom is Transmit with an explicit physical transmitter, which may
// differ from the frame's SA: spoofed frames (the deauthentication attack
// forges the legitimate AP's address) radiate from the spoofer's radio, so
// range and airtime are charged to the spoofer.
func (m *Medium) TransmitFrom(tx ieee80211.MAC, f *ieee80211.Frame) time.Duration {
	// The PHY channel is pinned at transmit time: if the transmitter
	// hops before the frame lands, the tail still went out on the old
	// channel. An unattached transmitter is agnostic and has no slot.
	key := macKey(tx)
	now, slot := m.engine.Now(), int32(-1)
	var txCh uint8
	var done time.Duration
	if i, ok := m.index[key]; ok {
		slot, txCh = int32(i), m.ch[i]
		done = max(now, m.busy[i]) + f.Airtime()
		m.busy[i] = done
	} else {
		done = max(now, m.busyUntil[key]) + f.Airtime()
		m.busyUntil[key] = done
	}
	m.FramesSent++
	m.mSent[f.Subtype&0xf].Inc()

	m.scheduleDeliver(done, tx, slot, txCh, f, unicastRetryLimit)
	return done
}

// deliverEvent is a pooled frame-delivery callback holding its own copy of
// the frame. One sits on the engine queue per in-flight transmission or
// retry; executing it delivers &f to every receiver and only then returns
// the event to the medium's pool, so a frame lives exactly as long as its
// delivery. A retry copies the frame into another pooled event. The bound
// run closure is allocated once per pool entry and reused for every
// schedule.
//
// slot is the transmitter's slot when the event was scheduled (-1 if it
// was not attached) and gen the compaction generation then: while no
// compaction has run and the slot is still occupied, it holds the same
// station, so the delivery needs no MAC lookup.
type deliverEvent struct {
	m           *Medium
	tx          ieee80211.MAC
	slot        int32
	txCh        uint8
	gen         uint64
	f           ieee80211.Frame
	retriesLeft int
	run         func()
}

// scheduleDeliver queues a delivery of a copy of *f at absolute time at,
// reusing a pooled event when one is free. slot is the transmitter's
// current slot, or -1.
func (m *Medium) scheduleDeliver(at time.Duration, tx ieee80211.MAC, slot int32, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	var de *deliverEvent
	if n := len(m.deliverPool); n > 0 {
		de = m.deliverPool[n-1]
		m.deliverPool[n-1] = nil
		m.deliverPool = m.deliverPool[:n-1]
	} else {
		de = &deliverEvent{m: m}
		de.run = de.exec
	}
	de.tx, de.slot, de.txCh, de.gen, de.f, de.retriesLeft = tx, slot, txCh, m.compactGen, *f, retriesLeft
	m.engine.At(at, de.run)
}

func (de *deliverEvent) exec() {
	m := de.m
	m.deliver(de)
	de.f = ieee80211.Frame{} // drop the SSID reference while pooled
	m.deliverPool = append(m.deliverPool, de)
}

// hears reports whether a transmission on txCh reaches a receiver tuned to
// rxCh; channel 0 on either side is agnostic.
func hears(txCh, rxCh uint8) bool {
	return txCh == rxCh || txCh == 0 || rxCh == 0
}

// unicastRetryLimit is the 802.11 long retry limit: unicast frames are
// ACKed, and a lost one is retransmitted up to this many times. Broadcast
// frames are never retried, per the standard.
const unicastRetryLimit = 7

// TxBusyUntil returns when the given transmitter's queue drains; before
// that time any new Transmit will be queued behind earlier frames.
func (m *Medium) TxBusyUntil(addr ieee80211.MAC) time.Duration {
	key := macKey(addr)
	if i, ok := m.index[key]; ok {
		return m.busy[i]
	}
	return m.busyUntil[key]
}

// deliver lands one transmission, then runs the compaction a Receive
// callback's Detach deferred. It looks the transmitter up by MAC again
// only when the event's slot may be stale.
func (m *Medium) deliver(de *deliverEvent) {
	ti := int(de.slot)
	if ti < 0 || de.gen != m.compactGen || m.order[ti] == nil {
		var ok bool
		if ti, ok = m.index[macKey(de.tx)]; !ok {
			// Transmitter departed mid-flight: the tail of its
			// transmission is lost.
			return
		}
	}
	m.delivering = true
	m.land(ti, de.tx, de.txCh, &de.f, de.retriesLeft)
	m.delivering = false
	m.maybeCompact()
}

// land delivers a transmission from the station in slot ti: to the
// monitor-mode stations, then to the unicast destination or the broadcast
// fan-out.
func (m *Medium) land(ti int, tx ieee80211.MAC, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	txPos := m.pos[ti]

	// Monitor-mode stations hear everything in range, first — their
	// detectors may inform decisions other receivers make later in the
	// same instant. A callback may attach more; they do not hear this
	// frame.
	for pi, n := 0, len(m.promisc); pi < n; pi++ {
		rx := m.promisc[pi]
		if rx == nil || rx.Addr() == tx {
			continue
		}
		if hears(txCh, m.promiscCh[pi]) && m.receives(txPos, rx.Pos(), f.Subtype) {
			rx.Receive(f)
		}
	}

	if f.DA.IsBroadcast() {
		m.deliverBroadcast(ti, txPos, txCh, f)
		return
	}
	ri, ok := m.index[macKey(f.DA)]
	if !ok {
		return
	}
	rx := m.order[ri]
	rxPos := rx.Pos()
	if !hears(txCh, m.ch[ri]) {
		// Wrong channel: no ACK, so the transmitter retries exactly as
		// for a lost frame (which is what a real radio observes).
		if retriesLeft > 0 {
			m.FramesRetried++
			m.mRetried.Inc()
			m.scheduleDeliver(m.engine.Now()+f.Airtime(), tx, int32(ti), txCh, f, retriesLeft-1)
		}
		return
	}
	if !m.inRange(txPos, rxPos) {
		return
	}
	if !m.dropped(f.Subtype) {
		m.FramesDelivered++
		m.mDelivered[f.Subtype&0xf].Inc()
		rx.Receive(f)
		return
	}
	if m.journal != nil {
		m.journal.Record(m.engine.Now(), obs.EventFrameLoss, tx.String(),
			fmt.Sprintf("%s to %s lost, %d retries left", f.Subtype, f.DA, retriesLeft))
	}
	// A unicast frame in range but lost draws no ACK; the transmitter
	// retries after another airtime, up to the 802.11 retry limit.
	if retriesLeft > 0 {
		m.FramesRetried++
		m.mRetried.Inc()
		m.scheduleDeliver(m.engine.Now()+f.Airtime(), tx, int32(ti), txCh, f, retriesLeft-1)
	}
}

// deliverBroadcast fans f out, from the station in slot ti, to every
// in-range station in attach order. Only stations bucketed in cells the
// transmitter can reach, in its channel's grid and the agnostic one (every
// grid for an agnostic transmitter), are visited; the merge returns their
// slot ids ascending, which IS attach order, so the delivery sequence (and
// thus every RNG draw) is identical to a full scan. No compaction runs
// while the fan-out does, so a slot keeps its station throughout; each
// candidate's channel, position and attachment are read when its turn
// comes.
func (m *Medium) deliverBroadcast(ti int, txPos geo.Point, txCh uint8, f *ieee80211.Frame) {
	cands := m.scratch[:0]
	if txCh == 0 {
		cands = geo.AppendNeighborhoods(cands, txPos, m.radius, m.inUse...)
	} else {
		cands = geo.AppendNeighborhoods(cands, txPos, m.radius, m.grids[txCh], m.grids[0])
	}
	m.scratch = cands
	for _, i := range cands {
		if !hears(txCh, m.ch[i]) || !m.inRange(txPos, m.pos[i]) || int(i) == ti {
			continue
		}
		rx := m.order[i]
		if rx == nil || m.dropped(f.Subtype) {
			continue
		}
		m.FramesDelivered++
		m.mDelivered[f.Subtype&0xf].Inc()
		rx.Receive(f)
	}
}
