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
	addr ieee80211.MAC
	pos  geo.Point
}

func (e *emitter) Addr() ieee80211.MAC      { return e.addr }
func (e *emitter) Pos() geo.Point           { return e.pos }
func (e *emitter) Receive(*ieee80211.Frame) {}

func fixture(t *testing.T, threshold int) (*sim.Engine, *sim.Medium, *Sentinel, *emitter) {
	t.Helper()
	engine := sim.NewEngine()
	medium := sim.NewMedium(engine, 100)
	s := NewSentinel(engine, sentinelMAC, geo.Pt(0, 0), threshold)
	if err := medium.AttachPromiscuous(s); err != nil {
		t.Fatal(err)
	}
	tx := &emitter{addr: twinMAC, pos: geo.Pt(5, 0)}
	if err := medium.Attach(tx); err != nil {
		t.Fatal(err)
	}
	return engine, medium, s, tx
}

func respond(medium *sim.Medium, from ieee80211.MAC, ssid string) {
	medium.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		DA:      clientMAC, SA: from, BSSID: from,
		SSID: ssid, Capability: ieee80211.CapESS,
	})
}

func TestSentinelFlagsSSIDDiversity(t *testing.T) {
	engine, medium, s, _ := fixture(t, 5)
	for i := 0; i < 10; i++ {
		respond(medium, twinMAC, fmt.Sprintf("Lure-%d", i))
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
	if err := medium.Attach(honest); err != nil {
		t.Fatal(err)
	}
	// A real AP repeats the same one or two SSIDs in responses/beacons.
	for i := 0; i < 50; i++ {
		respond(medium, honestMAC, "Cafe WiFi")
		medium.Transmit(&ieee80211.Frame{
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
	engine, medium, s, _ := fixture(t, 5)
	medium.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeRequest,
		DA:      ieee80211.BroadcastMAC, SA: twinMAC, SSID: "x",
	})
	medium.Transmit(&ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		DA:      clientMAC, SA: twinMAC, BSSID: twinMAC, SSID: "",
	})
	engine.RunContext(context.Background(), time.Second)
	if s.SSIDCount(twinMAC) != 0 {
		t.Errorf("counted SSIDs from probe requests / empty responses: %d", s.SSIDCount(twinMAC))
	}
}

func TestSentinelDefaultThreshold(t *testing.T) {
	engine, medium, s, _ := fixture(t, 0)
	for i := 0; i < DefaultSSIDThreshold-1; i++ {
		respond(medium, twinMAC, fmt.Sprintf("L%d", i))
	}
	engine.RunContext(context.Background(), time.Second)
	if s.flagged[twinMAC] {
		t.Error("flagged below default threshold")
	}
	respond(medium, twinMAC, "one-more")
	engine.RunContext(context.Background(), engine.Now()+time.Second)
	if !s.flagged[twinMAC] {
		t.Error("not flagged at default threshold")
	}
}
