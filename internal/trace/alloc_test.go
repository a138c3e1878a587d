package trace

import (
	"io"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/sim"
)

// TestPcapWriterSteadyStateZeroAlloc pins the capture encode path: after
// the first record grows the scratch buffer, writing frames allocates
// nothing per packet.
func TestPcapWriterSteadyStateZeroAlloc(t *testing.T) {
	pw, err := NewPcapWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	f := &ieee80211.Frame{
		Subtype:          ieee80211.SubtypeProbeResponse,
		SA:               ieee80211.MAC{0x02, 1, 2, 3, 4, 5},
		DA:               ieee80211.MAC{0x02, 9, 8, 7, 6, 5},
		BSSID:            ieee80211.MAC{0x02, 1, 2, 3, 4, 5},
		SSID:             "CoffeeShop Guest",
		Capability:       ieee80211.CapESS,
		Channel:          6,
		BeaconIntervalTU: 100,
	}
	if err := pw.WriteFrame(0, f); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := pw.WriteFrame(time.Millisecond, f); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("WriteFrame steady state allocates %.2f/op, want 0", avg)
	}
}

// TestMonitorReceiveAllocs pins the capture path: an entry holds the
// frame's typed subtype and addresses, so recording a frame formats
// nothing, and only the capture slice's amortised growth allocates.
func TestMonitorReceiveAllocs(t *testing.T) {
	mon := NewMonitor(sim.NewEngine(), ieee80211.MAC{0x0a, 0, 0, 0, 0, 0xfe}, geo.Pt(0, 0))
	f := probeEntryFrame(ieee80211.MAC{0x02, 1, 2, 3, 4, 5}, "CafeNet")
	const frames = 2000
	avg := testing.AllocsPerRun(frames, func() { mon.Receive(f) })
	if avg >= 0.1 {
		t.Errorf("Monitor.Receive allocates %.3f/frame, want < 0.1", avg)
	}
	if mon.Len() != frames+1 { // AllocsPerRun adds one warm-up call
		t.Errorf("captured %d frames, want %d", mon.Len(), frames+1)
	}
}
