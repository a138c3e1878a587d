package attack

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

// quietProber is a minimal station that swallows everything it receives,
// so allocation measurements see only the attacker's reply path.
type quietProber struct {
	addr ieee80211.MAC
	got  int
}

func (s *quietProber) Addr() ieee80211.MAC      { return s.addr }
func (s *quietProber) Pos() geo.Point           { return geo.Pt(5, 0) }
func (s *quietProber) Receive(*ieee80211.Frame) { s.got++ }

// TestBroadcastReplyPathAllocBudget pins the steady-state allocation cost
// of the hottest path in every experiment: a broadcast probe request
// arriving at the attacker and being answered with a full batch of forged
// probe responses. Engine events and delivery events are pooled, and each
// delivery event carries its frame by value, so once warm the whole burst
// allocates nothing.
func TestBroadcastReplyPathAllocBudget(t *testing.T) {
	e := sim.NewEngine()
	m := sim.NewMedium(e, 50)
	mana := NewMana()
	for i := 0; i < 100; i++ {
		mana.HarvestDirect(0, lnk(ieee80211.MAC{0x02, 9, 0, 0, 0, byte(i)}), fmt.Sprintf("Net-%03d", i))
	}
	a, err := New(e, m, mana, Config{MAC: attackerMAC})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	prober := &quietProber{addr: ieee80211.MAC{0x02, 1, 1, 1, 1, 1}}
	radio, err := m.Attach(prober)
	if err != nil {
		t.Fatal(err)
	}

	probe := &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		SA:      prober.addr,
		DA:      ieee80211.BroadcastMAC,
		BSSID:   ieee80211.BroadcastMAC,
	}
	drain := func() {
		radio.Transmit(probe)
		e.RunContext(context.Background(), e.Now()+time.Minute)
	}
	drain() // warm the event pools and the attacker's client table

	batch := a.Report().BroadcastClients
	if batch != 1 {
		t.Fatalf("BroadcastClients = %d, want 1", batch)
	}
	before := prober.got
	avg := testing.AllocsPerRun(50, drain)
	perReply := float64(prober.got-before) / 51 // AllocsPerRun runs once extra to warm up
	if perReply < 30 {
		t.Fatalf("replies per probe = %.1f, expected a full batch", perReply)
	}
	if avg != 0 {
		t.Errorf("broadcast reply burst allocates %.2f/op, want 0", avg)
	}
}
