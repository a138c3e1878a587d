package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

func TestPcapHeader(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewPcapWriter(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header = %d bytes", len(hdr))
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != pcapMagic {
		t.Errorf("magic = %#x", got)
	}
	if got := binary.LittleEndian.Uint32(hdr[20:24]); got != linkTypeIEEE80211 {
		t.Errorf("link type = %d, want 105 (802.11)", got)
	}
}

func TestPcapWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	f := &ieee80211.Frame{
		Subtype: ieee80211.SubtypeProbeResponse,
		SA:      ieee80211.MAC{0x0a, 1, 2, 3, 4, 5},
		DA:      ieee80211.MAC{0x02, 1, 2, 3, 4, 5},
		BSSID:   ieee80211.MAC{0x0a, 1, 2, 3, 4, 5},
		SSID:    "PcapNet",
	}
	at := 3*time.Second + 250*time.Microsecond
	if err := pw.WriteFrame(at, f); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), 24+16+f.WireLen(); got != want {
		t.Errorf("wrote %d bytes, want %d (header and one record)", got, want)
	}
	rec := buf.Bytes()[24:]
	if sec := binary.LittleEndian.Uint32(rec[0:4]); sec != 3 {
		t.Errorf("ts sec = %d", sec)
	}
	if usec := binary.LittleEndian.Uint32(rec[4:8]); usec != 250 {
		t.Errorf("ts usec = %d", usec)
	}
	wantLen := uint32(f.WireLen())
	if got := binary.LittleEndian.Uint32(rec[8:12]); got != wantLen {
		t.Errorf("incl len = %d, want %d", got, wantLen)
	}
	// The payload must unmarshal back to the same frame.
	payload := rec[16 : 16+int(wantLen)]
	back, err := ieee80211.Unmarshal(payload)
	if err != nil {
		t.Fatalf("payload does not parse: %v", err)
	}
	if back.SSID != "PcapNet" || back.SA != f.SA {
		t.Errorf("payload frame = %+v", back)
	}
}

func TestMonitorWritePcap(t *testing.T) {
	engine, medium, mon := monitorFixture(t)
	tx := &beeper{addr: ieee80211.MAC{0x02, 0, 0, 0, 0, 1}, pos: mon.Pos()}
	radio := attach(t, medium, tx)
	for i := 0; i < 5; i++ {
		radio.Transmit(&ieee80211.Frame{
			Subtype: ieee80211.SubtypeProbeRequest,
			DA:      ieee80211.BroadcastMAC, SA: tx.addr, BSSID: ieee80211.BroadcastMAC,
			SSID: "N",
		})
	}
	engine.RunContext(context.Background(), time.Second)

	var buf bytes.Buffer
	if err := mon.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	// Global header + 5 records; walk the records to verify framing.
	data := buf.Bytes()
	off := 24
	for i := 0; i < 5; i++ {
		if len(data) < off+16 {
			t.Fatalf("truncated at record %d", i)
		}
		n := int(binary.LittleEndian.Uint32(data[off+8 : off+12]))
		frame := data[off+16 : off+16+n]
		if _, err := ieee80211.Unmarshal(frame); err != nil {
			t.Fatalf("record %d does not parse: %v", i, err)
		}
		off += 16 + n
	}
	if off != len(data) {
		t.Errorf("%d trailing bytes", len(data)-off)
	}
}
