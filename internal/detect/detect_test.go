package detect

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

var (
	sentinelMAC = ieee80211.MAC{0x0a, 0xde, 0, 0, 0, 1}
	twinMAC     = ieee80211.MAC{0x0a, 0xbc, 0, 0, 0, 1}
	honestMAC   = ieee80211.MAC{0x0a, 0x11, 0, 0, 0, 1}
	clientMAC   = ieee80211.MAC{0x02, 0x22, 0, 0, 0, 1}
)

type emitter struct {
	addr  ieee80211.MAC
	pos   geo.Point
	radio *sim.Radio
}

func (e *emitter) Addr() ieee80211.MAC      { return e.addr }
func (e *emitter) Pos() geo.Point           { return e.pos }
func (e *emitter) Receive(*ieee80211.Frame) {}

func fixture(t *testing.T, threshold int) (*sim.Engine, *sim.Medium, *Sentinel, *emitter) {
	t.Helper()
	engine := sim.NewEngine()
	medium := sim.NewMedium(engine, 100)
	s := NewSentinel(engine, sentinelMAC, geo.Pt(0, 0), threshold)
	if _, err := medium.AttachPromiscuous(s); err != nil {
		t.Fatal(err)
	}
	tx := &emitter{addr: twinMAC, pos: geo.Pt(5, 0)}
	attach(t, medium, tx)
	return engine, medium, s, tx
}

// attach attaches e to medium and keeps its radio.
func attach(t *testing.T, medium *sim.Medium, e *emitter) {
	t.Helper()
	var err error
	if e.radio, err = medium.Attach(e); err != nil {
		t.Fatal(err)
	}
}

func respond(from *emitter, ssid string) {
	from.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		DA:      clientMAC, SA: from.addr, BSSID: from.addr,
		SSID: ssid, Capability: ieee80211.CapESS,
	})
}

func TestSentinelFlagsSSIDDiversity(t *testing.T) {
	engine, _, s, twin := fixture(t, 5)
	for i := 0; i < 10; i++ {
		respond(twin, fmt.Sprintf("Lure-%d", i))
	}
	engine.RunContext(context.Background(), time.Second)
	if !s.flagged[twinMAC] {
		t.Fatal("evil twin not flagged after 10 distinct SSIDs")
	}
	findings := s.Findings()
	if len(findings) != 1 {
		t.Fatalf("findings = %d", len(findings))
	}
	if findings[0].BSSID != twinMAC || findings[0].SSIDCount != 5 {
		t.Errorf("finding = %+v", findings[0])
	}
	if findings[0].FlaggedAt <= 0 {
		t.Error("zero detection time")
	}
	if s.SSIDCount(twinMAC) != 10 {
		t.Errorf("SSIDCount = %d", s.SSIDCount(twinMAC))
	}
	if got, want := s.String(), "sentinel: 1 BSSIDs observed, 1 flagged (threshold 5)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestSentinelToleratesHonestAP(t *testing.T) {
	engine, medium, s, _ := fixture(t, 5)
	honest := &emitter{addr: honestMAC, pos: geo.Pt(-5, 0)}
	attach(t, medium, honest)
	// A real AP repeats the same one or two SSIDs in responses/beacons.
	for i := 0; i < 50; i++ {
		respond(honest, "Cafe WiFi")
		honest.radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeBeacon,
			DA:      ieee80211.BroadcastMAC, SA: honestMAC, BSSID: honestMAC,
			SSID: "Cafe WiFi Guest",
		})
	}
	engine.RunContext(context.Background(), time.Second)
	if s.flagged[honestMAC] {
		t.Error("honest dual-SSID AP flagged")
	}
	if s.SSIDCount(honestMAC) != 2 {
		t.Errorf("SSIDCount = %d, want 2", s.SSIDCount(honestMAC))
	}
}

func TestSentinelIgnoresIrrelevantFrames(t *testing.T) {
	engine, _, s, twin := fixture(t, 5)
	twin.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC, SA: twinMAC, SSID: "x",
	})
	twin.radio.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		DA:      clientMAC, SA: twinMAC, BSSID: twinMAC, SSID: "",
	})
	engine.RunContext(context.Background(), time.Second)
	if s.SSIDCount(twinMAC) != 0 {
		t.Errorf("counted SSIDs from probe requests / empty responses: %d", s.SSIDCount(twinMAC))
	}
}

func TestSentinelDefaultThreshold(t *testing.T) {
	engine, _, s, twin := fixture(t, 0)
	for i := 0; i < DefaultSSIDThreshold-1; i++ {
		respond(twin, fmt.Sprintf("L%d", i))
	}
	engine.RunContext(context.Background(), time.Second)
	if s.flagged[twinMAC] {
		t.Error("flagged below default threshold")
	}
	respond(twin, "one-more")
	engine.RunContext(context.Background(), engine.Now()+time.Second)
	if !s.flagged[twinMAC] {
		t.Error("not flagged at default threshold")
	}
}
