package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
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
	// medium's cell and channel bitsets rely on both to keep broadcast
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
// until Receive. The slots are indexed by two kinds of bitset over the
// station table: one per occupied cell of a radio-range grid, and one per
// channel in use (channel 0 holds the channel-agnostic slots). A broadcast
// ORs the cells around its transmitter, masks the result with its channel
// and the agnostic one, and walks the set bits in ascending order, which
// is attach order, so fan-out visits only the stations near it on its
// channel without a merge or a sort. A unicast frame finds its receiver by
// its packed DA in a map, behind a one-entry memo of the last receiver: an
// attacker sends its probe responses in bursts of up to 40 to one phone.
//
// A broadcast's candidate set is fixed when its query runs: a station
// that attaches, walks into reach or tunes to the channel while the
// fan-out is under way does not hear it. Each candidate's channel,
// position and attachment are read again when its turn comes, so one that
// detaches, retunes or walks out of range first does not hear it either.
type Medium struct {
	engine *Engine

	// radius is the distance in metres within which a receiver hears a
	// transmitter. It also sizes the cells of the broadcast index.
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
	// uniKey and uniRx memoize the last unicast receiver index gave, so
	// the burst of probe responses an attacker sends one phone looks it
	// up once. The memo holds while uniRx is attached: only Attach and
	// Detach change what index maps a key to, Attach never replaces an
	// attached radio, and a detached radio never attaches again.
	uniKey uint64
	uniRx  *Radio

	// cells and chans index the slots for broadcast delivery, as bitsets
	// over the station table: slot i's bit is set in the cell of pos[i]
	// (keyOf with the radius) and in chans[ch[i]], and nowhere else. A
	// bitset may be shorter than the table; its missing words are zero.
	// Only occupied cells are kept, and spare holds the cleared bitsets of
	// emptied cells for new ones to reuse.
	cells map[cellKey][]uint64
	chans [][]uint64
	spare [][]uint64
	// scratch is the reusable broadcast candidate bitset. Delivery never
	// nests (events run one at a time and Receive callbacks only schedule
	// future work), so a single buffer is safe.
	scratch []uint64
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
	if radius <= 0 {
		panic(fmt.Sprintf("sim: medium radius %v must be positive", radius))
	}
	return &Medium{
		engine: engine,
		radius: radius,
		cells:  make(map[cellKey][]uint64),
		chans:  make([][]uint64, 1),
		index:  make(map[uint64]*Radio),
	}
}

// cellKey identifies one square cell of the broadcast index.
type cellKey struct{ X, Y int32 }

// keyOf returns the key of the size-metre cell containing p. One cell per
// range disk means a 3×3 box of cells always covers a transmitter's reach,
// and typical venues keep the crowd within a handful of cells. It floors
// rather than truncates, which would fold the cells either side of an axis
// together.
func keyOf(p geo.Point, size float64) cellKey {
	return cellKey{X: int32(math.Floor(p.X / size)), Y: int32(math.Floor(p.Y / size))}
}

// setBit sets bit i of b, growing it with zero words as needed, and
// returns it.
func setBit(b []uint64, i int32) []uint64 {
	if w, n := int(i>>6), len(b); w >= n {
		b = slices.Grow(b, w+1-n)[:w+1]
		clear(b[n:])
	}
	b[i>>6] |= 1 << (i & 63)
	return b
}

// clearBit clears bit i of b, which must reach it: every bitset that
// holds a slot is long enough to.
func clearBit(b []uint64, i int32) { b[i>>6] &^= 1 << (i & 63) }

// wordAt returns word w of b, 0 past its end.
func wordAt(b []uint64, w int) uint64 {
	if w < len(b) {
		return b[w]
	}
	return 0
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

// tune sets slot i's bit in channel c's mask, creating the mask on first
// use.
func (m *Medium) tune(i int32, c uint8) {
	if n := int(c) + 1; n > len(m.chans) {
		m.chans = append(m.chans, make([][]uint64, n-len(m.chans))...)
	}
	m.chans[c] = setBit(m.chans[c], i)
}

// bucket sets slot i's bit in cell k, starting an absent cell from a
// spare bitset.
func (m *Medium) bucket(i int32, k cellKey) {
	b, ok := m.cells[k]
	if n := len(m.spare); !ok && n > 0 {
		b = m.spare[n-1]
		m.spare[n-1] = nil
		m.spare = m.spare[:n-1]
	}
	m.cells[k] = setBit(b, i)
}

// unbucket clears slot i's bit in cell k, dropping the cell once it is
// empty.
func (m *Medium) unbucket(i int32, k cellKey) {
	b := m.cells[k]
	clearBit(b, i)
	for _, w := range b {
		if w != 0 {
			return
		}
	}
	delete(m.cells, k)
	m.spare = append(m.spare, b[:0])
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
	m.tune(r.slot, c)
	m.bucket(r.slot, keyOf(p, m.radius))
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
	clearBit(m.chans[m.ch[i]], i)
	m.unbucket(i, keyOf(m.pos[i], m.radius))
	m.order[i] = nil
	m.tombstones++
	if !m.delivering {
		m.maybeCompact()
	}
}

// Moved records the station's new position and moves its bit to the new
// cell when the cell changes. Every station whose position changes while
// attached must call it; a stale position can hide the station from
// broadcasts it should hear, or let it hear ones it should not. A move
// during a broadcast's fan-out counts for that fan-out's range check,
// though not for its candidate set. It is a no-op for a promiscuous radio,
// whose position is read live, so movers may report unconditionally.
func (r *Radio) Moved() {
	if !r.attached() || r.promisc {
		return
	}
	m, i, p := r.m, r.slot, r.s.Pos()
	if from, to := keyOf(m.pos[i], m.radius), keyOf(p, m.radius); from != to {
		m.unbucket(i, from)
		m.bucket(i, to)
	}
	m.pos[i] = p
}

// Retuned records a ChannelTuner's new channel and moves its bit to that
// channel's mask. Every tuner whose channel changes while attached
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
	clearBit(m.chans[m.ch[i]], i)
	m.ch[i] = c
	m.tune(i, c)
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

// maybeCompact drops the station table's tombstones once it has at least
// 64 slots and half of them are, preserving attach order. It runs between
// deliveries only, so it rewrites the per-slot arrays and each live
// radio's slot in place, then rebuilds the cell and channel bitsets from
// pos and ch, reusing their words.
func (m *Medium) maybeCompact() {
	if len(m.order) < 64 || m.tombstones*2 < len(m.order) {
		return
	}
	m.mCompactions.Inc()
	m.tombstones = 0
	n := int32(0)
	for i, r := range m.order {
		if r == nil {
			continue
		}
		m.order[n], m.pos[n], m.ch[n], m.busy[n] = r, m.pos[i], m.ch[i], m.busy[i]
		r.slot = n
		n++
	}
	clear(m.order[n:])
	m.order, m.pos, m.ch, m.busy = m.order[:n], m.pos[:n], m.ch[:n], m.busy[:n]
	for _, b := range m.cells {
		m.spare = append(m.spare, b[:0])
	}
	clear(m.cells)
	for c := range m.chans {
		m.chans[c] = m.chans[c][:0]
	}
	for i := range n {
		m.tune(i, m.ch[i])
		m.bucket(i, keyOf(m.pos[i], m.radius))
	}
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
// fan-out. A unicast destination is looked up in index only when it
// differs from the last one or that one has detached.
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
	rx := m.uniRx
	if k := macKey(f.DA); k != m.uniKey || !rx.attached() {
		var ok bool
		if rx, ok = m.index[k]; !ok || rx.promisc {
			return
		}
		m.uniKey, m.uniRx = k, rx
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
// in-range station in attach order. Only the slots of the candidates
// bitset are visited, in ascending order, which IS attach order, so the
// delivery sequence (and thus every RNG draw) is identical to a full scan.
// No compaction runs while the fan-out does, so a slot keeps its station
// throughout; each candidate's channel, position and attachment are read
// when its turn comes.
func (m *Medium) deliverBroadcast(ti int32, txPos geo.Point, txCh uint8, f *ieee80211.Frame) {
	for w, word := range m.candidates(txPos, txCh) {
		for ; word != 0; word &= word - 1 {
			i := int32(w<<6 + bits.TrailingZeros64(word))
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
}

// candidates returns, in the scratch bitset, the slots a broadcast on txCh
// from p may reach: the union of the cells its range box touches — at most
// 3×3, since a cell is one radius wide — masked, unless txCh is agnostic,
// with the slots tuned to txCh or agnostic. It is sized to the station
// table, so a station attached during the fan-out is not a candidate.
func (m *Medium) candidates(p geo.Point, txCh uint8) []uint64 {
	n := (len(m.order) + 63) >> 6
	s := slices.Grow(m.scratch[:0], n)[:n]
	clear(s)
	m.scratch = s
	lo := keyOf(geo.Point{X: p.X - m.radius, Y: p.Y - m.radius}, m.radius)
	hi := keyOf(geo.Point{X: p.X + m.radius, Y: p.Y + m.radius}, m.radius)
	for y := lo.Y; y <= hi.Y; y++ {
		for x := lo.X; x <= hi.X; x++ {
			b := m.cells[cellKey{X: x, Y: y}]
			for w, v := range b[:min(len(b), n)] {
				s[w] |= v
			}
		}
	}
	if txCh != 0 {
		// The transmitter was tuned to txCh, so its mask exists.
		on, agnostic := m.chans[txCh], m.chans[0]
		for w := range s {
			s[w] &= wordAt(on, w) | wordAt(agnostic, w)
		}
	}
	return s
}
