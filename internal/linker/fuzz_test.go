package linker

import (
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

// FuzzComposite feeds arbitrary observation sequences to the three-signal
// composite the scenario's LinkerComposite runs (threshold 0.75) and
// checks that Observe never panics, that a MAC keeps the track it was
// first assigned, that every distinct MAC either opened a track or was
// linked into one, and that a link always has sequence continuity behind
// it: without it the weak signals sum to at most fingerprint 0.3 + PNL
// head 0.4 = 0.7.
//
// Each observation takes four bytes: the MAC (16 addresses, so MACs
// recur), a signed step of the shared sequence counter, fingerprint and
// directed-SSID bits, and a signed time step of up to about ten minutes.
func FuzzComposite(f *testing.F) {
	// A phone rotating MACs with a continuous counter, then a stranger
	// with the same fingerprint and head SSID whose counter jumped.
	f.Add([]byte{1, 1, 0x05, 2, 2, 1, 0x05, 2, 3, 100, 0x05, 2})
	f.Add([]byte{1, 0, 0x0d, 0, 2, 0x80, 0x0d, 0x7f, 2, 3, 0x15, 0x81, 4, 1, 0, 0})
	ssids := []string{"", "eduroam", "home", "cafe"}
	f.Fuzz(func(t *testing.T, data []byte) {
		seqMatcher := NewSeqContinuity()
		c := NewComposite(0.75, seqMatcher, &FingerprintMatch{}, &PNLOrder{})
		assigned := make(map[ieee80211.MAC]TrackID)
		var at time.Duration
		var seq uint16
		for ; len(data) >= 4; data = data[4:] {
			seq += uint16(int8(data[1]))
			at += time.Duration(int8(data[3])) * 5 * time.Second
			o := Observation{
				At:          at,
				MAC:         mac(data[0] & 0x0f),
				Seq:         seq,
				Fingerprint: uint32(data[2] & 0x03),
				Directed:    data[2]&0x04 != 0,
				SSID:        ssids[(data[2]>>3)&0x03],
			}
			// Score continuity against every track before Observe folds
			// the observation into the one it picks.
			var seqScores []float64
			if _, seen := c.Lookup(o.MAC); !seen {
				for _, tr := range c.tracks {
					seqScores = append(seqScores, seqMatcher.Score(o, tr))
				}
			}
			links := c.Links()
			id := c.Observe(o)
			if prev, ok := assigned[o.MAC]; ok && prev != id {
				t.Fatalf("MAC %v moved from track %d to %d", o.MAC, prev, id)
			}
			assigned[o.MAC] = id
			if got, ok := c.Lookup(o.MAC); !ok || got != id {
				t.Fatalf("Lookup(%v) = %d, %v after Observe returned %d", o.MAC, got, ok, id)
			}
			if c.Links() > links && seqScores[id-1] <= 0 {
				t.Fatalf("linked %v into track %d with no sequence continuity", o.MAC, id)
			}
		}
		if c.Links() > len(assigned) || c.Tracks()+c.Links() != len(assigned) {
			t.Fatalf("%d tracks + %d links for %d distinct MACs", c.Tracks(), c.Links(), len(assigned))
		}
	})
}
