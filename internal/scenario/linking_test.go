package scenario

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cityhunter/internal/client"
	"cityhunter/internal/ieee80211"
)

// TestMACSpacesDisjointFromRandomizedBlock guards the collision-freedom
// invariant: every identity MAC space the simulation allocates from — the
// classic 0x02:0x00 venue block, the per-site 0x06:… blocks, the far-field
// 0x02:0x10 pedestrian block and the 0x0a:… infrastructure block — is
// disjoint from the 0x1a randomized block DerivedRandomMAC rotates into.
// A rotated MAC aliasing a stable identity would silently corrupt the
// linker's ground truth.
func TestMACSpacesDisjointFromRandomizedBlock(t *testing.T) {
	var identities []ieee80211.MAC

	classic := &macAllocator{}
	for i := 0; i < 200; i++ {
		identities = append(identities, classic.mac(), farFieldMAC(i))
	}
	for siteIdx := 0; siteIdx < 8; siteIdx++ {
		perSite := &macAllocator{space: siteMACSpace(siteIdx)}
		for i := 0; i < 50; i++ {
			identities = append(identities, perSite.mac())
		}
	}
	site := deploymentSiteIdentity(0)
	identities = append(identities, site.attackerMAC, site.legitMAC)

	seen := make(map[ieee80211.MAC]bool, 4*len(identities))
	for _, id := range identities {
		if id[0] == ieee80211.RandomizedMACPrefix {
			t.Fatalf("identity MAC %v allocated inside the randomized block", id)
		}
		if seen[id] {
			t.Fatalf("identity MAC %v allocated twice", id)
		}
		seen[id] = true
	}
	// Rotations of every identity stay outside all identity blocks and
	// never collide with each other or any identity.
	for _, id := range identities {
		for n := uint32(1); n <= 3; n++ {
			m := ieee80211.DerivedRandomMAC(id, n)
			if m[0] != ieee80211.RandomizedMACPrefix {
				t.Fatalf("rotation %d of %v left the randomized block: %v", n, id, m)
			}
			if seen[m] {
				t.Fatalf("rotated MAC %v collides (identity %v, rotation %d)", m, id, n)
			}
			seen[m] = true
		}
	}
}

func TestFingerprintForStableAndBounded(t *testing.T) {
	alloc := &macAllocator{}
	counts := make(map[uint32]int)
	for i := 0; i < 500; i++ {
		m := alloc.mac()
		fp := fingerprintFor(m)
		if fp < 1 || fp > defaultFingerprintModels {
			t.Fatalf("fingerprint %d out of [1, %d]", fp, defaultFingerprintModels)
		}
		if again := fingerprintFor(m); again != fp {
			t.Fatalf("fingerprint of %v not stable: %d then %d", m, fp, again)
		}
		counts[fp]++
	}
	// With 500 phones over 24 models, fingerprints must collide — that is
	// the point of a chipset personality (it corroborates, never identifies).
	if len(counts) < 2 {
		t.Fatalf("all phones share one fingerprint: %v", counts)
	}
	for fp, n := range counts {
		if n < 2 {
			continue
		}
		_ = fp
		return
	}
	t.Error("no fingerprint collisions across 500 phones and 24 models")
}

// TestApplyRandomizationUpgradesLegacyFlag pins the randomization fields
// phoneConfig gives a phone: no randomizing share leaves the phone fixed, a
// share without a named policy rotates per scan with no fingerprint, and a
// named policy brings its period and the phone's chipset fingerprint. The
// draws come in seeded order: scan jitter, canary, randomization.
func TestApplyRandomizationUpgradesLegacyFlag(t *testing.T) {
	mac := ieee80211.MAC{0x02, 0, 0, 0, 0, 1}
	fp := fingerprintFor(mac)
	cases := []struct {
		name     string
		fraction float64
		policy   client.RandomizationPolicy
		every    time.Duration
		want     client.RandomizationPolicy
		wantFP   uint32
	}{
		{"fraction 0", 0, client.RandomizePerBurst, time.Minute, client.RandomizeNone, 0},
		{"legacy", 1, client.RandomizeNone, time.Minute, client.RandomizePerScan, 0},
		{"per-scan", 1, client.RandomizePerScan, time.Minute, client.RandomizePerScan, fp},
		{"per-burst", 1, client.RandomizePerBurst, time.Minute, client.RandomizePerBurst, fp},
		{"timed", 1, client.RandomizeTimed, time.Minute, client.RandomizeTimed, fp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := &runEnv{cfg: Config{
				ScanInterval:         time.Minute,
				CanaryFraction:       0.5,
				RandomizeMACFraction: tc.fraction,
				Randomization:        tc.policy,
				RandomizeEvery:       tc.every,
			}}
			ccfg := env.phoneConfig(rand.New(rand.NewSource(1)), mac, nil, false)
			wantEvery := time.Duration(0)
			if tc.wantFP != 0 {
				wantEvery = tc.every
			}
			if ccfg.Randomization != tc.want || ccfg.RandomizeEvery != wantEvery || ccfg.Fingerprint != tc.wantFP {
				t.Errorf("got policy %v, every %v, fingerprint %d; want %v, %v, %d",
					ccfg.Randomization, ccfg.RandomizeEvery, ccfg.Fingerprint, tc.want, wantEvery, tc.wantFP)
			}

			ref := rand.New(rand.NewSource(1))
			if want := time.Duration(float64(time.Minute) * (0.7 + 0.6*ref.Float64())); ccfg.ScanInterval != want {
				t.Errorf("scan interval %v, want %v from the first draw", ccfg.ScanInterval, want)
			}
			if want := ref.Float64() < 0.5; ccfg.CanaryProbing != want {
				t.Errorf("canary %v, want %v from the second draw", ccfg.CanaryProbing, want)
			}
			if tc.fraction > 0 && ref.Float64() >= tc.fraction {
				t.Fatal("fraction 1 did not draw the phone into the randomizing share")
			}
		})
	}
}

func TestValidateLinking(t *testing.T) {
	city, hm := testCity(t)
	base := Config{City: city, HeatMap: hm, Venue: CanteenVenue(), Attack: CityHunter, Seed: 1}

	bad := base
	bad.Randomization = client.RandomizationPolicy(99)
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("unknown randomization policy accepted")
	}
	bad = base
	bad.RandomizeEvery = -time.Second
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("negative randomize-every accepted")
	}
	bad = base
	bad.Linker = LinkerKind(99)
	if _, err := RunContext(context.Background(), bad, 0, time.Minute); err == nil {
		t.Error("unknown linker kind accepted")
	}
}

// TestRandomizationDeterminism is the CI smoke: for every randomization
// policy, two same-seed runs under the composite linker agree on every
// outcome, tally and the full linker report. A divergence means rotation
// state leaked into (or out of) some shared RNG stream.
func TestRandomizationDeterminism(t *testing.T) {
	for name, policy := range RandomizationByName {
		t.Run(name, func(t *testing.T) {
			run := func() *Result {
				cfg := baseConfig(t, CanteenVenue(), CityHunter, 5)
				cfg.Randomization = policy
				cfg.Linker = LinkerComposite
				res, err := RunContext(context.Background(), cfg, 4, 2*time.Minute)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				return res
			}
			a, b := run(), run()
			if a.Tally != b.Tally {
				t.Errorf("tallies diverge:\n first %+v\nsecond %+v", a.Tally, b.Tally)
			}
			if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
				t.Error("outcomes diverge between same-seed runs")
			}
			if !reflect.DeepEqual(a.Links, b.Links) {
				t.Errorf("linker reports diverge:\n first %+v\nsecond %+v", a.Links, b.Links)
			}
		})
	}
}
