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
// whenever its Radio.Retuned reports a change; it never asks on the
// delivery path. A tuner whose channel changes while attached must report
// each change through Retuned, or it keeps hearing its old channel.
type ChannelTuner interface {
	// CurrentChannel returns the channel the radio is tuned to right now
	// (0 behaves as channel-agnostic).
	CurrentChannel() uint8
}

// Station is anything attached to the medium: clients, attackers,
// legitimate APs.
type Station interface {
	// Addr returns the station's MAC address. It must be unique on the
	// medium and stable while the station is attached; a station that
	// changes it (a MAC rotation) detaches first and attaches again.
	Addr() ieee80211.MAC
	// Pos returns the station's current position. The medium reads it when
	// the station attaches and whenever its Radio.Moved reports a change,
	// and keeps that position for broadcast fan-out and for the station's
	// own transmissions; only a unicast receiver's and a monitor-mode
	// station's positions are read live at delivery time. A station whose
	// position changes while attached must report each change through
	// Moved, and a ChannelTuner each channel change through Retuned — the
	// medium's spatial delivery index relies on both to keep broadcast
	// fan-out exact.
	Pos() geo.Point
	// Receive delivers a frame that arrived at the station's antenna. The
	// medium owns f: it is valid only during the call and is reused once
	// Receive returns, so a station copies whatever it keeps.
	Receive(f *ieee80211.Frame)
}

// Radio is a station's handle on the medium, returned by Attach and
// AttachPromiscuous: the station transmits, and reports moves and retunes,
// through it, so the medium never looks a station's own radio up by MAC.
// Methods on a nil or detached Radio are no-ops. Attaching again (after a
// MAC rotation, say) gives a new Radio, and frames the old one had in
// flight are lost.
type Radio struct {
	m *Medium
	// s is the station, nil once detached (and in a zero Radio).
	s Station
	// slot is the radio's index in the medium's station table, or in its
	// monitor table if promisc. Compaction keeps it current.
	slot    int32
	promisc bool
}

// Medium is a shared broadcast RF channel. Frames sent by one station are
// delivered, after their airtime, to every other attached station within
// radio range of the transmitter at delivery time. Per-radio serialization
// models the half-duplex radio: a station's next frame starts only after
// its previous one finished, which is exactly what limits an attacker to
// ~40 probe responses per 10 ms scan window.
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

	// order holds the attached radios in attach order, with pos and ch
	// their stations' positions and channels as last reported and busy
	// the time each one's transmit queue drains. Detached slots are nil
	// and recycled lazily, so an ascending slot scan is an attach-order
	// scan.
	order []*Radio
	pos   []geo.Point
	ch    []uint8
	busy  []time.Duration
	// tombstones counts order's nil slots.
	tombstones int
	// index maps a packed MAC (macKey) to its attached radio, promiscuous
	// ones included: it addresses unicast frames and refuses duplicates.
	index map[uint64]*Radio

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

	// promisc holds monitor-mode radios and promiscCh their channels: they
	// hear every in-range frame regardless of its destination, and are
	// never addressable.
	promisc   []*Radio
	promiscCh []uint8

	// deliverPool recycles the frame-delivery events Radio.Transmit and the
	// retry paths schedule. Each event carries its frame by value, so
	// steady-state transmission allocates neither frames nor closures.
	deliverPool []*deliverEvent

	// loss is the independent per-delivery drop probability; lossRNG
	// draws for it.
	loss    float64
	lossRNG *rand.Rand

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
		engine: engine,
		radius: radius,
		grids:  []*geo.HashGrid{agnostic},
		inUse:  []*geo.HashGrid{agnostic},
		index:  make(map[uint64]*Radio),
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
// station. Only Attach, AttachPromiscuous and Radio.Retuned ask.
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

// Attach registers s on the medium and returns its radio. Attaching a MAC
// twice is a programming error and returns one.
func (m *Medium) Attach(s Station) (*Radio, error) {
	r, err := m.newRadio(s, len(m.order), false)
	if err != nil {
		return nil, err
	}
	p, c := s.Pos(), tunedTo(s)
	m.order = append(m.order, r)
	m.pos = append(m.pos, p)
	m.ch = append(m.ch, c)
	m.busy = append(m.busy, 0)
	m.grid(c).Insert(r.slot, p)
	return r, nil
}

// AttachPromiscuous registers s as a monitor-mode station: it receives
// every frame whose transmitter is in range — unicast or broadcast, to
// anyone — exactly like a sniffer in monitor mode. Promiscuous stations
// are not addressable (frames sent to their MAC go nowhere) and do not
// transmit: their radio's Transmit is a no-op.
func (m *Medium) AttachPromiscuous(s Station) (*Radio, error) {
	r, err := m.newRadio(s, len(m.promisc), true)
	if err != nil {
		return nil, err
	}
	m.promisc = append(m.promisc, r)
	m.promiscCh = append(m.promiscCh, tunedTo(s))
	return r, nil
}

// newRadio indexes a radio for s at the given slot, refusing a MAC that is
// already attached.
func (m *Medium) newRadio(s Station, slot int, promisc bool) (*Radio, error) {
	addr := s.Addr()
	if _, dup := m.index[macKey(addr)]; dup {
		return nil, fmt.Errorf("sim: station %v already attached", addr)
	}
	r := &Radio{m: m, s: s, slot: int32(slot), promisc: promisc}
	m.index[macKey(addr)] = r
	return r, nil
}

// attached reports whether r is a live handle.
func (r *Radio) attached() bool { return r != nil && r.s != nil }

// Detach removes the radio's station from the medium; frames already in
// flight to or from it are lost. Detaching twice is a no-op, so departing
// stations can detach unconditionally.
func (r *Radio) Detach() {
	if !r.attached() {
		return
	}
	m, i := r.m, r.slot
	delete(m.index, macKey(r.s.Addr()))
	r.s = nil
	if r.promisc {
		m.promisc[i] = nil
		return
	}
	m.unbucket(i)
	m.order[i] = nil
	m.tombstones++
	if !m.delivering {
		m.maybeCompact()
	}
}

// Moved records the station's new position and re-buckets it in the
// spatial delivery index. Every station whose position changes while
// attached must call it; a stale position can hide the station from
// broadcasts it should hear, or let it hear ones it should not. A move
// during a broadcast's fan-out counts for that fan-out's range check,
// though not for its candidate set. It is a no-op for a promiscuous radio,
// whose position is read live, so movers may report unconditionally.
func (r *Radio) Moved() {
	if !r.attached() || r.promisc {
		return
	}
	m, i := r.m, r.slot
	g, p := m.grids[m.ch[i]], r.s.Pos()
	g.Move(i, g.Key(m.pos[i]), p)
	m.pos[i] = p
}

// Retuned records a ChannelTuner's new channel and moves it to that
// channel's spatial grid. Every tuner whose channel changes while attached
// must call it; until it does, the medium delivers to and from the station
// on its old channel. A retune during a broadcast's fan-out counts for
// that fan-out's channel check, though not for its candidate set. It is
// cheap when the channel is unchanged, so tuners may report
// unconditionally.
func (r *Radio) Retuned() {
	if !r.attached() {
		return
	}
	m, i, c := r.m, r.slot, tunedTo(r.s)
	if r.promisc {
		m.promiscCh[i] = c
		return
	}
	if c == m.ch[i] {
		return
	}
	m.unbucket(i)
	m.ch[i] = c
	m.grid(c).Insert(i, m.pos[i])
}

// BusyUntil returns when the radio's transmit queue drains; before that
// time a new Transmit is queued behind earlier frames. It is 0 for a nil,
// detached or promiscuous radio.
func (r *Radio) BusyUntil() time.Duration {
	if !r.attached() || r.promisc {
		return 0
	}
	return r.m.busy[r.slot]
}

// unbucket removes slot i from its channel's grid.
func (m *Medium) unbucket(i int32) {
	g := m.grids[m.ch[i]]
	g.Remove(i, g.Key(m.pos[i]))
}

// maybeCompact drops the station table's tombstones once it has at least
// 64 slots and half of them are, preserving attach order. It runs between
// deliveries only, so it rewrites the per-slot arrays and each live
// radio's slot in place, and renumbers every grid's slots through a
// monotone map, which keeps each cell ascending.
func (m *Medium) maybeCompact() {
	if len(m.order) < 64 || m.tombstones*2 < len(m.order) {
		return
	}
	m.mCompactions.Inc()
	m.tombstones = 0
	renumber := m.renumber[:0]
	n := int32(0)
	for i, r := range m.order {
		renumber = append(renumber, n)
		if r == nil {
			continue
		}
		m.order[n], m.pos[n], m.ch[n], m.busy[n] = r, m.pos[i], m.ch[i], m.busy[i]
		r.slot = n
		n++
	}
	clear(m.order[n:])
	m.order, m.pos, m.ch, m.busy = m.order[:n], m.pos[:n], m.ch[:n], m.busy[:n]
	for _, g := range m.inUse {
		g.Renumber(renumber)
	}
	m.renumber = renumber
}

// Transmit queues f for transmission on the radio, whatever f.SA says (a
// spoofed frame radiates from the spoofer's radio, so range and airtime
// are charged to it). The frame goes on air once the radio's previous
// frame has finished (half-duplex serialization) and is delivered after
// its airtime to every in-range station — to the unicast destination only,
// or to everyone for broadcast destinations. Transmit returns the time the
// frame will finish transmitting; on a nil, detached or promiscuous radio
// it sends nothing and returns 0.
//
// The medium copies *f before Transmit returns, so the caller may reuse f
// or keep it on its stack.
func (r *Radio) Transmit(f *ieee80211.Frame) time.Duration {
	if !r.attached() || r.promisc {
		return 0
	}
	// The PHY channel is pinned at transmit time: if the transmitter hops
	// before the frame lands, the tail still went out on the old channel.
	m, i := r.m, r.slot
	done := max(m.engine.Now(), m.busy[i]) + f.Airtime()
	m.busy[i] = done
	m.mSent[f.Subtype&0xf].Inc()
	m.scheduleDeliver(done, r, m.ch[i], f, unicastRetryLimit)
	return done
}

// deliverEvent is a pooled frame-delivery callback holding its own copy of
// the frame and the radio that sent it. One sits on the engine queue per
// in-flight transmission or retry; executing it delivers &f to every
// receiver and only then returns the event to the medium's pool, so a
// frame lives exactly as long as its delivery. A retry copies the frame
// into another pooled event. The bound run closure is allocated once per
// pool entry and reused for every schedule.
type deliverEvent struct {
	tx          *Radio
	txCh        uint8
	f           ieee80211.Frame
	retriesLeft int
	run         func()
}

// scheduleDeliver queues a delivery of a copy of *f from tx at absolute
// time at, reusing a pooled event when one is free.
func (m *Medium) scheduleDeliver(at time.Duration, tx *Radio, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	var de *deliverEvent
	if n := len(m.deliverPool); n > 0 {
		de = m.deliverPool[n-1]
		m.deliverPool[n-1] = nil
		m.deliverPool = m.deliverPool[:n-1]
	} else {
		de = &deliverEvent{}
		de.run = de.exec
	}
	de.tx, de.txCh, de.f, de.retriesLeft = tx, txCh, *f, retriesLeft
	m.engine.At(at, de.run)
}

func (de *deliverEvent) exec() {
	m := de.tx.m
	m.deliver(de)
	// Drop the radio and SSID references while pooled.
	de.tx, de.f = nil, ieee80211.Frame{}
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

// deliver lands one transmission, then runs the compaction a Receive
// callback's Detach deferred. A frame whose radio detached before it lands
// is lost: the tail of its transmission never went out.
func (m *Medium) deliver(de *deliverEvent) {
	if !de.tx.attached() {
		return
	}
	m.delivering = true
	m.land(de.tx, de.txCh, &de.f, de.retriesLeft)
	m.delivering = false
	m.maybeCompact()
}

// land delivers a transmission from the attached radio tx: to the
// monitor-mode stations, then to the unicast destination or the broadcast
// fan-out.
func (m *Medium) land(tx *Radio, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	txPos := m.pos[tx.slot]

	// Monitor-mode stations hear everything in range, first — their
	// detectors may inform decisions other receivers make later in the
	// same instant. A callback may attach more; they do not hear this
	// frame.
	for pi, n := 0, len(m.promisc); pi < n; pi++ {
		rx := m.promisc[pi]
		if rx != nil && hears(txCh, m.promiscCh[pi]) && m.receives(txPos, rx.s.Pos(), f.Subtype) {
			rx.s.Receive(f)
		}
	}

	if f.DA.IsBroadcast() {
		m.deliverBroadcast(tx.slot, txPos, txCh, f)
		return
	}
	rx, ok := m.index[macKey(f.DA)]
	if !ok || rx.promisc {
		return
	}
	if !hears(txCh, m.ch[rx.slot]) {
		// Wrong channel: no ACK, so the transmitter retries exactly as
		// for a lost frame (which is what a real radio observes).
		m.retry(tx, txCh, f, retriesLeft)
		return
	}
	if !m.inRange(txPos, rx.s.Pos()) {
		return
	}
	if !m.dropped(f.Subtype) {
		m.mDelivered[f.Subtype&0xf].Inc()
		rx.s.Receive(f)
		return
	}
	if m.journal != nil {
		m.journal.Record(m.engine.Now(), obs.EventFrameLoss, tx.s.Addr().String(),
			fmt.Sprintf("%s to %s lost, %d retries left", f.Subtype, f.DA, retriesLeft))
	}
	// A unicast frame in range but lost draws no ACK; the transmitter
	// retries after another airtime, up to the 802.11 retry limit.
	m.retry(tx, txCh, f, retriesLeft)
}

// retry schedules an un-ACKed unicast frame's retransmission after another
// airtime, while the retry budget lasts.
func (m *Medium) retry(tx *Radio, txCh uint8, f *ieee80211.Frame, retriesLeft int) {
	if retriesLeft > 0 {
		m.mRetried.Inc()
		m.scheduleDeliver(m.engine.Now()+f.Airtime(), tx, txCh, f, retriesLeft-1)
	}
}

// deliverBroadcast fans f out, from the radio in slot ti, to every
// in-range station in attach order. Only stations bucketed in cells the
// transmitter can reach, in its channel's grid and the agnostic one (every
// grid for an agnostic transmitter), are visited; the merge returns their
// slot ids ascending, which IS attach order, so the delivery sequence (and
// thus every RNG draw) is identical to a full scan. No compaction runs
// while the fan-out does, so a slot keeps its station throughout; each
// candidate's channel, position and attachment are read when its turn
// comes.
func (m *Medium) deliverBroadcast(ti int32, txPos geo.Point, txCh uint8, f *ieee80211.Frame) {
	cands := m.scratch[:0]
	if txCh == 0 {
		cands = geo.AppendNeighborhoods(cands, txPos, m.radius, m.inUse...)
	} else {
		cands = geo.AppendNeighborhoods(cands, txPos, m.radius, m.grids[txCh], m.grids[0])
	}
	m.scratch = cands
	for _, i := range cands {
		if !hears(txCh, m.ch[i]) || !m.inRange(txPos, m.pos[i]) || i == ti {
			continue
		}
		rx := m.order[i]
		if rx == nil || m.dropped(f.Subtype) {
			continue
		}
		m.mDelivered[f.Subtype&0xf].Inc()
		rx.s.Receive(f)
	}
}
