// Package ieee80211 models the slice of IEEE 802.11 needed by the
// City-Hunter reproduction: management frames (probe request/response,
// authentication, association, deauthentication and beacons), the
// information elements they carry, capability bits, binary wire
// (un)marshalling, and airtime accounting.
//
// The wire layout follows the 802.11-2012 MAC header and management frame
// body formats closely enough that frames round-trip byte-exactly, which the
// property tests rely on. PHY concerns (modulation, retries, RTS/CTS) are
// abstracted into a simple airtime model; see Airtime.
package ieee80211

import (
	"fmt"
	"math/rand"
)

// MAC is a 48-bit IEEE 802 MAC address.
type MAC [6]byte

// BroadcastMAC is the all-ones broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// RandomMAC returns a locally administered unicast MAC drawn from rng.
// Modern phones randomise their probe MACs in exactly this form (the
// locally-administered bit set, the multicast bit clear).
func RandomMAC(rng *rand.Rand) MAC {
	var m MAC
	for i := range m {
		m[i] = byte(rng.Intn(256))
	}
	m[0] = (m[0] | 0x02) &^ 0x01
	return m
}

// RandomizedMACPrefix is the first octet of every MAC returned by
// DerivedRandomMAC. It has the locally-administered bit set and the
// multicast bit clear, and — crucially for the simulation — is disjoint
// from every identity block the population planes allocate from (the
// classic 0x02:… block, the per-site 0x06:… blocks, the far-field
// 0x02:0x10 block and the 0x0a:… infrastructure block), so a rotated MAC
// can never collide with a stable identity.
const RandomizedMACPrefix = 0x1a

// DerivedRandomMAC returns the n-th randomized MAC for a device whose
// stable identity is identity. The derivation is a pure hash — no RNG
// stream is consumed — so rotation schedules perturb nothing else in a
// seeded run and a suspended client resumes its rotation sequence exactly.
func DerivedRandomMAC(identity MAC, n uint32) MAC {
	z := uint64(identity[0])<<40 | uint64(identity[1])<<32 | uint64(identity[2])<<24 |
		uint64(identity[3])<<16 | uint64(identity[4])<<8 | uint64(identity[5])
	z ^= uint64(n) * 0x9e3779b97f4a7c15
	// splitmix64 finalizer: every identity/counter pair diffuses into all
	// 40 usable bits.
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return MAC{RandomizedMACPrefix, byte(z >> 32), byte(z >> 24), byte(z >> 16), byte(z >> 8), byte(z)}
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// String implements fmt.Stringer with the canonical colon form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}
