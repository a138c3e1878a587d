package ieee80211

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMACStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		m := RandomMAC(rng)
		var back MAC
		if _, err := fmt.Sscanf(m.String(), "%02x:%02x:%02x:%02x:%02x:%02x",
			&back[0], &back[1], &back[2], &back[3], &back[4], &back[5]); err != nil {
			t.Fatalf("scanning %q: %v", m.String(), err)
		}
		if back != m {
			t.Fatalf("round trip: %v != %v", back, m)
		}
	}
}

func TestRandomMACIsLocalUnicast(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		m := RandomMAC(rng)
		if m[0]&0x02 == 0 {
			t.Fatalf("%v lacks locally-administered bit", m)
		}
		if m[0]&0x01 != 0 {
			t.Fatalf("%v has multicast bit", m)
		}
		if m.IsBroadcast() {
			t.Fatalf("random MAC is broadcast")
		}
	}
}

func TestRandomMACUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seen := make(map[MAC]bool, 1000)
	for i := 0; i < 1000; i++ {
		m := RandomMAC(rng)
		if seen[m] {
			t.Fatalf("duplicate MAC %v after %d draws", m, i)
		}
		seen[m] = true
	}
}

func TestDerivedRandomMACShape(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		m := DerivedRandomMAC(RandomMAC(rng), uint32(i))
		if m[0] != RandomizedMACPrefix {
			t.Fatalf("%v not in the 0x%02x randomized block", m, RandomizedMACPrefix)
		}
		if m[0]&0x02 == 0 {
			t.Fatalf("%v lacks locally-administered bit", m)
		}
		if m[0]&0x01 != 0 {
			t.Fatalf("%v has multicast bit", m)
		}
	}
}

func TestDerivedRandomMACDeterministic(t *testing.T) {
	id := MAC{0x02, 0x00, 0xde, 0xad, 0xbe, 0xef}
	for n := uint32(0); n < 8; n++ {
		if a, b := DerivedRandomMAC(id, n), DerivedRandomMAC(id, n); a != b {
			t.Fatalf("counter %d: %v != %v", n, a, b)
		}
	}
}

// TestDerivedRandomMACDisjointFromIdentityBlocks guards the invariant the
// whole identity/observable split rests on: a rotated MAC can never collide
// with any stable identity MAC the simulation allocates. Identity planes
// draw from the classic 0x02:0x00 block, the per-site 0x06:… blocks, the
// far-field 0x02:0x10 block and the 0x0a:… infrastructure block — all with
// a first octet different from RandomizedMACPrefix.
func TestDerivedRandomMACDisjointFromIdentityBlocks(t *testing.T) {
	identityPrefixes := []byte{0x02, 0x06, 0x0a}
	for _, p := range identityPrefixes {
		if p == RandomizedMACPrefix {
			t.Fatalf("identity prefix 0x%02x collides with the randomized block", p)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		m := DerivedRandomMAC(RandomMAC(rng), uint32(i%7))
		for _, p := range identityPrefixes {
			if m[0] == p {
				t.Fatalf("derived MAC %v landed in identity block 0x%02x", m, p)
			}
		}
	}
}

// TestDerivedRandomMACCollisionRegression: the splitmix64 derivation must
// spread a realistic population's rotation sequences across the 40-bit tail
// without collisions. 1000 identities × 32 rotations each (32k MACs) is far
// denser than any simulated venue.
func TestDerivedRandomMACCollisionRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	seen := make(map[MAC]bool, 32000)
	for i := 0; i < 1000; i++ {
		id := RandomMAC(rng)
		for n := uint32(1); n <= 32; n++ {
			m := DerivedRandomMAC(id, n)
			if seen[m] {
				t.Fatalf("derived MAC collision at %v (identity %v, rotation %d)", m, id, n)
			}
			seen[m] = true
		}
	}
}

func TestIsBroadcast(t *testing.T) {
	if !BroadcastMAC.IsBroadcast() {
		t.Error("BroadcastMAC.IsBroadcast() = false")
	}
	if (MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xfe}).IsBroadcast() {
		t.Error("near-broadcast reported broadcast")
	}
}
