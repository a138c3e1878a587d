package linker

import (
	"strings"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

func mac(b byte) ieee80211.MAC { return ieee80211.MAC{0x1a, 0, 0, 0, 0, b} }

func TestMACLinkerIdentity(t *testing.T) {
	l := NewMACLinker()
	a := l.Observe(Observation{MAC: mac(1), Seq: 10})
	b := l.Observe(Observation{MAC: mac(2), Seq: 11})
	if a != 1 || b != 2 {
		t.Fatalf("tracks = %d, %d; want dense 1, 2", a, b)
	}
	if again := l.Observe(Observation{MAC: mac(1), Seq: 12}); again != a {
		t.Errorf("re-observation moved track: %d -> %d", a, again)
	}
	if l.Tracks() != 2 || l.Links() != 0 {
		t.Errorf("Tracks = %d, Links = %d; want 2, 0", l.Tracks(), l.Links())
	}
	if id, ok := l.Lookup(mac(2)); !ok || id != b {
		t.Errorf("Lookup = %d, %v", id, ok)
	}
	if _, ok := l.Lookup(mac(9)); ok {
		t.Error("Lookup invented a track")
	}
	if got := len(l.Assignments()); got != 2 {
		t.Errorf("Assignments size = %d", got)
	}
}

// TestSeqOnlyMislinksFingerprintCorrects is the satellite scenario: two
// devices whose sequence counters happen to run close together. Sequence
// continuity alone merges them into one track (precision collapses); adding
// the IE fingerprint vetoes the cross-device merge and re-links the first
// device's rotated MAC correctly instead.
func TestSeqOnlyMislinksFingerprintCorrects(t *testing.T) {
	devA, devB := mac(0xa0), mac(0xb0)
	// Device A appears as a1, rotates to a2; device B appears as b1 with a
	// counter value sitting right in A's continuity window.
	obs := []Observation{
		{At: 0, MAC: mac(0xa1), Seq: 100, Fingerprint: 111},
		{At: 10 * time.Second, MAC: mac(0xb1), Seq: 105, Fingerprint: 222},
		{At: 20 * time.Second, MAC: mac(0xa2), Seq: 103, Fingerprint: 111},
	}
	truth := map[ieee80211.MAC]ieee80211.MAC{
		mac(0xa1): devA, mac(0xa2): devA, mac(0xb1): devB,
	}

	seqOnly := NewComposite(0.5, NewSeqContinuity())
	for _, o := range obs {
		seqOnly.Observe(o)
	}
	rep := NewReport(seqOnly.Name(), seqOnly.Assignments(), seqOnly.Links(), truth)
	if rep.FalsePairs == 0 {
		t.Fatalf("seq-only linker should mislink A and B: %v", rep)
	}
	if rep.Precision >= 1 {
		t.Fatalf("seq-only precision = %v, want < 1", rep.Precision)
	}

	composed := NewComposite(0.5, NewSeqContinuity(), &FingerprintMatch{})
	for _, o := range obs {
		composed.Observe(o)
	}
	crep := NewReport(composed.Name(), composed.Assignments(), composed.Links(), truth)
	if crep.Precision != 1 || crep.Recall != 1 {
		t.Fatalf("composite P=%v R=%v, want both 1 (%v)", crep.Precision, crep.Recall, crep)
	}
	if crep.Tracks != 2 || crep.Links != 1 {
		t.Errorf("composite Tracks=%d Links=%d, want 2 tracks and 1 re-link", crep.Tracks, crep.Links)
	}
}

func TestSeqContinuityWindow(t *testing.T) {
	s := NewSeqContinuity()
	track := &Track{LastSeq: 4090, LastAt: 0}
	// Modular wrap within the gap still scores.
	if got := s.Score(Observation{At: time.Second, Seq: 5}, track); got <= 0 {
		t.Errorf("wrapped delta score = %v, want > 0", got)
	}
	// Identical counters are not continuity evidence (two frames cannot
	// share a counter on one device).
	if got := s.Score(Observation{At: time.Second, Seq: 4090}, track); got != 0 {
		t.Errorf("zero delta score = %v, want 0", got)
	}
	// Beyond the horizon the evidence expires.
	if got := s.Score(Observation{At: time.Hour, Seq: 4091}, track); got != 0 {
		t.Errorf("stale score = %v, want 0", got)
	}
	// Far counters are unrelated.
	if got := s.Score(Observation{At: time.Second, Seq: 2000}, track); got != 0 {
		t.Errorf("distant delta score = %v, want 0", got)
	}
}

func TestPNLOrderScoring(t *testing.T) {
	m := &PNLOrder{}
	track := &Track{}
	track.observe(Observation{Directed: true, SSID: "HomeNet"})
	track.observe(Observation{Directed: true, SSID: "Office"})
	head := m.Score(Observation{Directed: true, SSID: "HomeNet"}, track)
	member := m.Score(Observation{Directed: true, SSID: "Office"}, track)
	stranger := m.Score(Observation{Directed: true, SSID: "Cafe"}, track)
	broadcast := m.Score(Observation{}, track)
	if !(head > member && member > 0) {
		t.Errorf("head=%v member=%v, want head > member > 0", head, member)
	}
	if stranger >= 0 {
		t.Errorf("stranger score = %v, want negative", stranger)
	}
	if broadcast != 0 {
		t.Errorf("broadcast score = %v, want 0", broadcast)
	}
}

// TestPNLOrderRelinksRotation drives a PNL-only composite through a
// rotation: the fresh MAC's first directed probe names the same
// head-of-PNL SSID and is re-linked.
func TestPNLOrderRelinksRotation(t *testing.T) {
	l := NewComposite(0.35, &PNLOrder{})
	first := l.Observe(Observation{At: 0, MAC: mac(1), Seq: 1, Directed: true, SSID: "HomeNet"})
	second := l.Observe(Observation{At: time.Minute, MAC: mac(2), Seq: 2, Directed: true, SSID: "HomeNet"})
	if first != second {
		t.Errorf("rotation split tracks: %d vs %d", first, second)
	}
	if l.Links() != 1 {
		t.Errorf("Links = %d, want 1", l.Links())
	}
}

func TestCompositeDeterminism(t *testing.T) {
	run := func() map[ieee80211.MAC]TrackID {
		l := NewComposite(0.5, NewSeqContinuity(), &FingerprintMatch{}, &PNLOrder{})
		for i := 0; i < 40; i++ {
			l.Observe(Observation{
				At:          time.Duration(i) * time.Second,
				MAC:         mac(byte(i % 8)),
				Seq:         uint16(i * 3 % 4096),
				Fingerprint: uint32(1 + i%4),
				Directed:    i%2 == 0,
				SSID:        []string{"", "Net-A", "", "Net-B"}[i%4],
			})
		}
		return l.Assignments()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("assignment sizes differ: %d vs %d", len(a), len(b))
	}
	for m, id := range a {
		if b[m] != id {
			t.Errorf("MAC %v: track %d vs %d", m, id, b[m])
		}
	}
}

func TestReportPairwiseCounts(t *testing.T) {
	devA, devB := mac(0xa0), mac(0xb0)
	// Track 1 holds two of A's MACs plus one of B's; track 2 holds A's
	// third MAC. Hand-computed: TP=1 (a1,a2), FP=2 (a1,b1),(a2,b1),
	// FN=2 (a1,a3),(a2,a3).
	assign := map[ieee80211.MAC]TrackID{
		mac(1): 1, mac(2): 1, mac(3): 1, mac(4): 2,
	}
	truth := map[ieee80211.MAC]ieee80211.MAC{
		mac(1): devA, mac(2): devA, mac(3): devB, mac(4): devA,
		mac(9): devB, // never observed: must not count
	}
	r := NewReport("test", assign, 2, truth)
	if r.TruePairs != 1 || r.FalsePairs != 2 || r.MissedPairs != 2 {
		t.Fatalf("TP/FP/FN = %d/%d/%d, want 1/2/2", r.TruePairs, r.FalsePairs, r.MissedPairs)
	}
	if r.MACs != 4 || r.Tracks != 2 || r.Devices != 2 || r.Links != 2 {
		t.Errorf("MACs/Tracks/Devices/Links = %d/%d/%d/%d", r.MACs, r.Tracks, r.Devices, r.Links)
	}
	wantP, wantR := 1.0/3, 1.0/3
	if r.Precision != wantP || r.Recall != wantR {
		t.Errorf("P=%v R=%v, want %v/%v", r.Precision, r.Recall, wantP, wantR)
	}
	if r.F1 <= 0 || r.F1 >= 1 {
		t.Errorf("F1 = %v", r.F1)
	}
	if s := r.String(); !strings.Contains(s, "test") {
		t.Errorf("String() = %q", s)
	}
}

// TestReportEmptyTruthIsPerfect: a run with nothing linkable grades as
// perfect rather than dividing by zero.
func TestReportEmptyTruthIsPerfect(t *testing.T) {
	r := NewReport("mac", map[ieee80211.MAC]TrackID{mac(1): 1}, 0, nil)
	if r.Precision != 1 || r.Recall != 1 {
		t.Errorf("P=%v R=%v, want 1/1", r.Precision, r.Recall)
	}
}

// TestMACObservedUnderTruthlessMACs: attacker-side MACs missing from the
// truth table are excluded from every count.
func TestReportIgnoresTruthlessMACs(t *testing.T) {
	devA := mac(0xa0)
	assign := map[ieee80211.MAC]TrackID{mac(1): 1, mac(2): 1, mac(7): 2}
	truth := map[ieee80211.MAC]ieee80211.MAC{mac(1): devA, mac(2): devA}
	r := NewReport("mac", assign, 1, truth)
	if r.MACs != 2 || r.Tracks != 1 {
		t.Errorf("MACs=%d Tracks=%d, want 2/1", r.MACs, r.Tracks)
	}
	if r.Precision != 1 || r.Recall != 1 {
		t.Errorf("P=%v R=%v", r.Precision, r.Recall)
	}
}
