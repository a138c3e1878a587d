package ieee80211

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// macHeaderLen is the length of the 3-address management MAC header:
// frame control (2), duration (2), three addresses (18), sequence
// control (2).
const macHeaderLen = 24

// errors returned by Marshal and Unmarshal.
var (
	ErrSSIDTooLong      = errors.New("ieee80211: SSID exceeds 32 octets")
	ErrShortFrame       = errors.New("ieee80211: frame shorter than MAC header")
	ErrNotManagement    = errors.New("ieee80211: not a management frame")
	ErrUnknownSubtype   = errors.New("ieee80211: unsupported frame subtype")
	ErrTruncatedBody    = errors.New("ieee80211: truncated frame body")
	ErrProtocolVersion  = errors.New("ieee80211: unsupported protocol version")
	ErrMissingSSID      = errors.New("ieee80211: frame body lacks mandatory SSID element")
	ErrInvalidSeqNumber = errors.New("ieee80211: sequence number exceeds 12 bits")
)

// Marshal encodes f into its 802.11 wire form (without FCS). It allocates
// exactly one buffer of WireLen bytes; hot paths that encode repeatedly
// should hold a scratch buffer and use AppendMarshal instead.
func (f *Frame) Marshal() ([]byte, error) {
	return f.AppendMarshal(make([]byte, 0, f.WireLen()))
}

// AppendMarshal appends f's 802.11 wire form (without FCS) to dst and
// returns the extended slice. When dst has capacity for WireLen more bytes
// the encode performs no allocation, which is what lets capture and replay
// paths reuse one scratch buffer per writer. On error dst is returned
// unchanged.
func (f *Frame) AppendMarshal(dst []byte) ([]byte, error) {
	if !ValidSSID(f.SSID) {
		return dst, fmt.Errorf("%w: %d octets", ErrSSIDTooLong, len(f.SSID))
	}
	if f.Seq > 0x0fff {
		return dst, fmt.Errorf("%w: %d", ErrInvalidSeqNumber, f.Seq)
	}
	var hdr [macHeaderLen]byte
	// Frame control: version 0, type 00 (management), subtype in bits 4-7
	// of the first octet.
	hdr[0] = byte(f.Subtype) << 4
	// hdr[1] flags all zero; hdr[2:4] duration left zero (virtual medium).
	copy(hdr[4:10], f.DA[:])
	copy(hdr[10:16], f.SA[:])
	copy(hdr[16:22], f.BSSID[:])
	binary.LittleEndian.PutUint16(hdr[22:24], f.Seq<<4)

	b := dst
	switch f.Subtype {
	case SubtypeProbeRequest:
		b = append(b, hdr[:]...)
		b = appendElementString(b, elemSSID, f.SSID)
		b = appendElement(b, elemSupportedRates, defaultRates)
		if f.Fingerprint != 0 {
			var fp [fingerprintElemLen]byte
			copy(fp[:3], fingerprintOUI[:])
			binary.LittleEndian.PutUint32(fp[3:7], f.Fingerprint)
			b = appendElement(b, elemVendorSpecific, fp[:])
		}
	case SubtypeProbeResponse, SubtypeBeacon:
		b = append(b, hdr[:]...)
		var fixed [12]byte // timestamp (8) stays zero in the simulation
		binary.LittleEndian.PutUint16(fixed[8:10], f.BeaconIntervalTU)
		binary.LittleEndian.PutUint16(fixed[10:12], uint16(f.Capability))
		b = append(b, fixed[:]...)
		b = appendElementString(b, elemSSID, f.SSID)
		b = appendElement(b, elemSupportedRates, defaultRates)
		b = append(b, elemDSParameterSet, 1, f.Channel)
	case SubtypeAuth:
		b = append(b, hdr[:]...)
		var fixed [6]byte
		binary.LittleEndian.PutUint16(fixed[0:2], uint16(f.AuthAlgorithm))
		binary.LittleEndian.PutUint16(fixed[2:4], f.AuthSeq)
		binary.LittleEndian.PutUint16(fixed[4:6], uint16(f.Status))
		b = append(b, fixed[:]...)
	case SubtypeAssocRequest:
		b = append(b, hdr[:]...)
		var fixed [4]byte
		binary.LittleEndian.PutUint16(fixed[0:2], uint16(f.Capability))
		binary.LittleEndian.PutUint16(fixed[2:4], 10) // listen interval
		b = append(b, fixed[:]...)
		b = appendElementString(b, elemSSID, f.SSID)
		b = appendElement(b, elemSupportedRates, defaultRates)
	case SubtypeAssocResponse:
		b = append(b, hdr[:]...)
		var fixed [6]byte
		binary.LittleEndian.PutUint16(fixed[0:2], uint16(f.Capability))
		binary.LittleEndian.PutUint16(fixed[2:4], uint16(f.Status))
		binary.LittleEndian.PutUint16(fixed[4:6], f.AssociationID)
		b = append(b, fixed[:]...)
	case SubtypeDeauth:
		b = append(b, hdr[:]...)
		var fixed [2]byte
		binary.LittleEndian.PutUint16(fixed[0:2], uint16(f.Reason))
		b = append(b, fixed[:]...)
	default:
		return dst, fmt.Errorf("%w: %v", ErrUnknownSubtype, f.Subtype)
	}
	return b, nil
}

// Unmarshal decodes an 802.11 management frame from wire form. It is the
// inverse of Marshal: Unmarshal(Marshal(f)) reproduces f for every field
// Marshal encodes.
func Unmarshal(b []byte) (*Frame, error) {
	if len(b) < macHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(b))
	}
	fc := b[0]
	if fc&0x03 != 0 {
		return nil, ErrProtocolVersion
	}
	if fc>>2&0x03 != 0 {
		return nil, ErrNotManagement
	}
	f := &Frame{Subtype: FrameSubtype(fc >> 4)}
	copy(f.DA[:], b[4:10])
	copy(f.SA[:], b[10:16])
	copy(f.BSSID[:], b[16:22])
	f.Seq = binary.LittleEndian.Uint16(b[22:24]) >> 4
	body := b[macHeaderLen:]

	switch f.Subtype {
	case SubtypeProbeRequest:
		return f, f.parseElements(body, false)
	case SubtypeProbeResponse, SubtypeBeacon:
		if len(body) < 12 {
			return nil, ErrTruncatedBody
		}
		f.BeaconIntervalTU = binary.LittleEndian.Uint16(body[8:10])
		f.Capability = CapabilityInfo(binary.LittleEndian.Uint16(body[10:12]))
		return f, f.parseElements(body[12:], true)
	case SubtypeAuth:
		if len(body) < 6 {
			return nil, ErrTruncatedBody
		}
		f.AuthAlgorithm = AuthAlgorithm(binary.LittleEndian.Uint16(body[0:2]))
		f.AuthSeq = binary.LittleEndian.Uint16(body[2:4])
		f.Status = StatusCode(binary.LittleEndian.Uint16(body[4:6]))
		return f, nil
	case SubtypeAssocRequest:
		if len(body) < 4 {
			return nil, ErrTruncatedBody
		}
		f.Capability = CapabilityInfo(binary.LittleEndian.Uint16(body[0:2]))
		return f, f.parseElements(body[4:], true)
	case SubtypeAssocResponse:
		if len(body) < 6 {
			return nil, ErrTruncatedBody
		}
		f.Capability = CapabilityInfo(binary.LittleEndian.Uint16(body[0:2]))
		f.Status = StatusCode(binary.LittleEndian.Uint16(body[2:4]))
		f.AssociationID = binary.LittleEndian.Uint16(body[4:6])
		return f, nil
	case SubtypeDeauth:
		if len(body) < 2 {
			return nil, ErrTruncatedBody
		}
		f.Reason = ReasonCode(binary.LittleEndian.Uint16(body[0:2]))
		return f, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnknownSubtype, f.Subtype)
	}
}

// parseElements walks the information elements, filling SSID, and the
// fields only some subtypes carry: Channel for beacons and probe
// responses, Fingerprint for probe requests. Elsewhere those elements are
// skipped, as Marshal would never write them. ssidRequired marks frames
// whose body must carry an SSID element (probe responses, beacons,
// association requests); probe requests carry one too but it may be zero
// length (wildcard) so presence is still required there — however we
// accept its absence as a wildcard for robustness.
func (f *Frame) parseElements(body []byte, ssidRequired bool) error {
	r := elementReader{buf: body}
	sawSSID := false
	for {
		id, payload, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		switch id {
		case elemSSID:
			if len(payload) > MaxSSIDLen {
				return ErrSSIDTooLong
			}
			f.SSID = string(payload)
			sawSSID = true
		case elemDSParameterSet:
			if len(payload) == 1 && (f.Subtype == SubtypeBeacon || f.Subtype == SubtypeProbeResponse) {
				f.Channel = payload[0]
			}
		case elemVendorSpecific:
			if f.Subtype == SubtypeProbeRequest && len(payload) == fingerprintElemLen &&
				payload[0] == fingerprintOUI[0] && payload[1] == fingerprintOUI[1] && payload[2] == fingerprintOUI[2] {
				f.Fingerprint = binary.LittleEndian.Uint32(payload[3:7])
			}
		}
	}
	if ssidRequired && !sawSSID {
		return ErrMissingSSID
	}
	return nil
}

// WireLen returns the marshalled length of f in bytes without encoding it.
// It matches len(Marshal(f)) exactly and is what the airtime model uses.
func (f *Frame) WireLen() int {
	n := macHeaderLen
	switch f.Subtype {
	case SubtypeProbeRequest:
		n += 2 + len(f.SSID) + 2 + len(defaultRates)
		if f.Fingerprint != 0 {
			n += 2 + fingerprintElemLen
		}
	case SubtypeProbeResponse, SubtypeBeacon:
		n += 12 + 2 + len(f.SSID) + 2 + len(defaultRates) + 2 + 1
	case SubtypeAuth:
		n += 6
	case SubtypeAssocRequest:
		n += 4 + 2 + len(f.SSID) + 2 + len(defaultRates)
	case SubtypeAssocResponse:
		n += 6
	case SubtypeDeauth:
		n += 2
	}
	return n
}
