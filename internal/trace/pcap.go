package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"cityhunter/internal/ieee80211"
)

// Classic pcap constants (pcap file format, not pcapng).
const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	// linkTypeIEEE80211 is DLT_IEEE802_11: raw 802.11 headers without a
	// radiotap prefix.
	linkTypeIEEE80211 = 105
	// pcapSnapLen is the per-packet capture limit we declare.
	pcapSnapLen = 65535
)

// PcapWriter streams frames into the classic libpcap file format with
// 802.11 link type, so captures open directly in Wireshark/tcpdump.
type PcapWriter struct {
	w io.Writer
	// buf is the reusable frame-encode scratch and rec the record-header
	// scratch (a local array would escape through the io.Writer call):
	// after the first record the steady-state encode path allocates
	// nothing.
	buf []byte
	rec [16]byte
}

// NewPcapWriter writes the global header and returns a writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	// thiszone (4) and sigfigs (4) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeIEEE80211)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: pcap header: %w", err)
	}
	return &PcapWriter{w: w}, nil
}

// WriteFrame marshals f and appends one packet record stamped with the
// virtual capture time.
func (p *PcapWriter) WriteFrame(at time.Duration, f *ieee80211.Frame) error {
	wire, err := f.AppendMarshal(p.buf[:0])
	if err != nil {
		return fmt.Errorf("trace: marshal frame: %w", err)
	}
	p.buf = wire[:0]
	rec := p.rec[:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(at/time.Second))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(at%time.Second/time.Microsecond))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(wire)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(wire)))
	if _, err := p.w.Write(rec); err != nil {
		return fmt.Errorf("trace: pcap record header: %w", err)
	}
	if _, err := p.w.Write(wire); err != nil {
		return fmt.Errorf("trace: pcap payload: %w", err)
	}
	return nil
}

// WritePcap writes a monitor's capture in pcap form. Each record is the
// frame rebuilt from its entry — subtype, addressing and SSID, which is
// what Wireshark displays.
func (m *Monitor) WritePcap(w io.Writer) error {
	pw, err := NewPcapWriter(w)
	if err != nil {
		return err
	}
	var f ieee80211.Frame // reused across entries; WriteFrame does not retain it
	for i := range m.entries {
		e := &m.entries[i]
		f = ieee80211.Frame{Subtype: e.Subtype, SA: e.SA, DA: e.DA, BSSID: e.BSSID, SSID: e.SSID}
		if err := pw.WriteFrame(e.At, &f); err != nil {
			return err
		}
	}
	return nil
}
