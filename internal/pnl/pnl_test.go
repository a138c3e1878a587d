package pnl

import (
	"math"
	"math/rand"
	"testing"

	"cityhunter/internal/citygen"
	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/wigle"
)

// testCity builds one shared small city for the whole package; generation
// is deterministic so sharing is safe.
func testModel(t *testing.T, cfg Config) (*Model, *citygen.City) {
	t.Helper()
	ccfg := citygen.DefaultConfig(1)
	ccfg.ResidentialAPs = 800
	ccfg.CafeAPs = 200
	ccfg.Photos = 8000
	city, err := citygen.Generate(ccfg)
	if err != nil {
		t.Fatalf("citygen: %v", err)
	}
	hm, err := heatmap.FromPhotos(city.Bounds, 250, city.Photos)
	if err != nil {
		t.Fatalf("heatmap: %v", err)
	}
	m, err := NewModel(city.DB, hm, cfg)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m, city
}

func TestListContains(t *testing.T) {
	l := List{{SSID: "a", Open: true}, {SSID: "b"}}
	if !l.Contains("a") || !l.Contains("b") || l.Contains("c") {
		t.Error("Contains misbehaves")
	}
	if !l.OpenSSID("a") {
		t.Error("OpenSSID(a) = false")
	}
	if l.OpenSSID("b") {
		t.Error("OpenSSID on secured entry = true")
	}
	if l.OpenSSID("c") {
		t.Error("OpenSSID on missing entry = true")
	}
}

func TestNewModelValidation(t *testing.T) {
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100))
	db, err := wigle.New(bounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := heatmap.New(bounds, 10)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MeanPublicEntries: -1},
		{CarrierFraction: 2},
		{CompanionShare: -0.5},
	}
	for _, cfg := range bad {
		if _, err := NewModel(db, hm, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestNewListDeterministicPerSeed(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	at := geo.Pt(2600, 2400)
	a := m.NewList(rand.New(rand.NewSource(5)), at)
	b := m.NewList(rand.New(rand.NewSource(5)), at)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNewListNoDuplicates(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	rng := rand.New(rand.NewSource(7))
	at := geo.Pt(4000, 4000)
	for trial := 0; trial < 200; trial++ {
		l := m.NewList(rng, at)
		seen := make(map[string]bool, len(l))
		for _, n := range l {
			if seen[n.SSID] {
				t.Fatalf("duplicate %q in %v", n.SSID, l)
			}
			seen[n.SSID] = true
		}
	}
}

func TestNewListComposition(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	at := geo.Pt(2600, 2400)
	const phones = 3000
	var private, public, carrier, total int
	for i := 0; i < phones; i++ {
		l := m.NewList(rng, at)
		total += len(l)
		for _, n := range l {
			switch {
			case n.Hidden:
				carrier++
			case n.Open:
				public++
			default:
				private++
			}
		}
	}
	if private <= public {
		t.Errorf("private entries (%d) should dominate public (%d): that is why MANA's harvested DB is low quality", private, public)
	}
	gotCarrier := float64(carrier) / phones
	if math.Abs(gotCarrier-DefaultConfig().CarrierFraction) > 0.05 {
		t.Errorf("carrier fraction = %.3f, want ≈%.2f", gotCarrier, DefaultConfig().CarrierFraction)
	}
	meanLen := float64(total) / phones
	if meanLen < 2 || meanLen > 9 {
		t.Errorf("mean PNL length %.2f outside plausible band", meanLen)
	}
}

func TestOpenHitProbabilityBand(t *testing.T) {
	// The probability that a random phone has at least one open,
	// non-hidden entry drives KARMA's direct hit rate; the paper
	// measured 24/85 ≈ 28 % (canteen) and 37/178 ≈ 21 % (passage).
	m, _ := testModel(t, DefaultConfig())
	rng := rand.New(rand.NewSource(13))
	at := geo.Pt(2600, 2400)
	const phones = 4000
	hits := 0
	for i := 0; i < phones; i++ {
		l := m.NewList(rng, at)
		for _, n := range l {
			if n.Open && !n.Hidden {
				hits++
				break
			}
		}
	}
	p := float64(hits) / phones
	if p < 0.12 || p > 0.38 {
		t.Errorf("P(open visible entry) = %.3f, want within the paper's direct-hit band [0.12, 0.38]", p)
	}
}

func TestCompanionSharing(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	rng := rand.New(rand.NewSource(17))
	at := geo.Pt(4000, 4000)
	shareSum, leaders := 0.0, 0
	for trial := 0; trial < 500; trial++ {
		leader := m.NewList(rng, at)
		if len(leader) == 0 {
			continue
		}
		comp := m.NewCompanionList(rng, at, leader)
		shared := 0
		for _, n := range leader {
			if comp.Contains(n.SSID) {
				shared++
			}
		}
		shareSum += float64(shared) / float64(len(leader))
		leaders++
	}
	meanShare := shareSum / float64(leaders)
	want := DefaultConfig().CompanionShare
	if math.Abs(meanShare-want) > 0.10 {
		t.Errorf("companion share = %.3f, want ≈%.2f", meanShare, want)
	}
}

func TestCompanionListNoDuplicates(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	rng := rand.New(rand.NewSource(19))
	at := geo.Pt(4000, 4000)
	for trial := 0; trial < 200; trial++ {
		leader := m.NewList(rng, at)
		comp := m.NewCompanionList(rng, at, leader)
		seen := make(map[string]bool, len(comp))
		for _, n := range comp {
			if seen[n.SSID] {
				t.Fatalf("duplicate %q", n.SSID)
			}
			seen[n.SSID] = true
		}
	}
}

func TestAdoptionFollowsHeat(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	// The airport SSID sits in the hottest venue; its adoption must beat
	// a random café's.
	airport := m.AdoptionProbability("#HKAirport Free WiFi")
	cafe := m.AdoptionProbability("Cafe-0001 Free WiFi")
	if airport <= cafe {
		t.Errorf("adoption airport=%.5f <= cafe=%.5f", airport, cafe)
	}
	if m.AdoptionProbability("no-such-ssid") != 0 {
		t.Error("unknown SSID has non-zero adoption")
	}
}

func TestCarrierSSIDs(t *testing.T) {
	m, _ := testModel(t, DefaultConfig())
	got := m.CarrierSSIDs()
	if len(got) != len(DefaultCarriers()) {
		t.Fatalf("CarrierSSIDs = %v", got)
	}
	// Carrier entries are open and hidden in generated lists.
	rng := rand.New(rand.NewSource(23))
	carrierSet := make(map[string]bool)
	for _, s := range got {
		carrierSet[s] = true
	}
	found := false
	for i := 0; i < 200 && !found; i++ {
		for _, n := range m.NewList(rng, geo.Pt(4000, 4000)) {
			if carrierSet[n.SSID] {
				found = true
				if !n.Open || !n.Hidden {
					t.Fatalf("carrier entry %+v should be open and hidden", n)
				}
			}
		}
	}
	if !found {
		t.Error("no carrier entry in 200 phones at 35% provisioning")
	}
}

func TestLocalPoolRespectsRadius(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeanLocalEntries = 3 // amplify local draws
	cfg.PublicUserFraction = 0
	cfg.MeanPublicEntries = 0
	cfg.MeanPrivateEntries = 0
	cfg.UnsafeExtraOpen = 0
	cfg.CarrierFraction = 0
	m, city := testModel(t, cfg)
	rng := rand.New(rand.NewSource(29))
	at := geo.Pt(2600, 2400)
	// Every local entry has an open AP within the pool radius.
	nearby := map[string]bool{}
	for _, r := range city.DB.Records() {
		if r.Open && r.Pos.Dist2(at) <= cfg.LocalPoolRadius*cfg.LocalPoolRadius {
			nearby[r.SSID] = true
		}
	}
	for i := 0; i < 50; i++ {
		for _, n := range m.NewList(rng, at) {
			if !nearby[n.SSID] {
				t.Fatalf("local entry %q has no AP within %v m", n.SSID, cfg.LocalPoolRadius)
			}
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	if poisson(rng, 0) != 0 || poisson(rng, -2) != 0 {
		t.Error("poisson of non-positive mean != 0")
	}
	const n = 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += poisson(rng, 1.5)
	}
	mean := float64(sum) / n
	if math.Abs(mean-1.5) > 0.05 {
		t.Errorf("poisson mean = %.3f, want ≈1.5", mean)
	}
}

func TestPublicUniverseSize(t *testing.T) {
	m, city := testModel(t, DefaultConfig())
	open := city.DB.CountBySSID(true)
	if len(m.publicSSIDs) != len(open) {
		t.Errorf("universe = %d, open SSIDs = %d", len(m.publicSSIDs), len(open))
	}
}

func TestAvailabilityScalesUserFraction(t *testing.T) {
	cfg := DefaultConfig()
	dense, _ := testModel(t, cfg)
	if got, want := dense.effectiveUserFraction, cfg.PublicUserFraction; got > want+1e-9 {
		t.Errorf("dense effective fraction %v above configured %v", got, want)
	}
	// A near-empty ecosystem drives adoption towards zero.
	bounds := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	db, err := wigle.New(bounds, []wigle.Record{
		{SSID: "Lonely Cafe", Pos: geo.Pt(10, 10), Open: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	hm, err := heatmap.New(bounds, 100)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := NewModel(db, hm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := thin.effectiveUserFraction; got > cfg.PublicUserFraction/100 {
		t.Errorf("thin ecosystem fraction = %v, want ≈0", got)
	}
}

// TestLocalPoolOrderIndependent pins the local-pool cache as a pure
// function of the query position: two nearby positions (closer than any
// plausible cache granularity, like the 60 m station–passage gap) must each
// get the pool computed from their own coordinates regardless of which was
// queried first. A coarser-keyed cache lets the first caller poison the
// second's pool, which showed up as cross-test golden divergence when the
// far-field tier and the classic runs shared one model.
func TestLocalPoolOrderIndependent(t *testing.T) {
	cfg := DefaultConfig()
	a, b := geo.Pt(4000, 4000), geo.Pt(4050, 4020)

	m1, _ := testModel(t, cfg)
	poolA1 := append([]string(nil), m1.localPool(a)...)
	poolB1 := append([]string(nil), m1.localPool(b)...)

	m2, _ := testModel(t, cfg)
	poolB2 := append([]string(nil), m2.localPool(b)...)
	poolA2 := append([]string(nil), m2.localPool(a)...)

	equal := func(x, y []string) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !equal(poolA1, poolA2) {
		t.Errorf("pool at %v depends on query order:\nfirst  %v\nsecond %v", a, poolA1, poolA2)
	}
	if !equal(poolB1, poolB2) {
		t.Errorf("pool at %v depends on query order:\nfirst  %v\nsecond %v", b, poolB1, poolB2)
	}
	// Cached lookups stay stable too.
	if !equal(poolA1, m1.localPool(a)) || !equal(poolB2, m2.localPool(b)) {
		t.Error("cached pool changed between lookups")
	}
}
