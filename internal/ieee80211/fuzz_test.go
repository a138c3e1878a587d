package ieee80211

import (
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the frame decoder, seeded with one
// marshalled frame per subtype. It must never panic, and any frame it
// accepts must marshal, to exactly WireLen bytes, and decode back to the
// same Frame.
func FuzzUnmarshal(f *testing.F) {
	fingerprinted := &Frame{Subtype: SubtypeProbeRequest, SA: testClient, DA: BroadcastMAC,
		BSSID: BroadcastMAC, SSID: "HomeNet", Fingerprint: 0x5eed}
	for _, fr := range append(sampleFrames(), fingerprinted) {
		b, err := fr.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Unmarshal(data)
		if err != nil {
			return
		}
		wire, err := fr.Marshal()
		if err != nil {
			t.Fatalf("accepted frame %+v does not marshal: %v", fr, err)
		}
		if n := fr.WireLen(); n != len(wire) {
			t.Fatalf("WireLen = %d, marshalled %d bytes", n, len(wire))
		}
		back, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", wire, err)
		}
		if !reflect.DeepEqual(back, fr) {
			t.Fatalf("round trip changed the frame:\n got  %+v\n want %+v", back, fr)
		}
	})
}
