package citygen

import (
	"reflect"
	"testing"

	"cityhunter/internal/geo"
	"cityhunter/internal/heatmap"
)

func generateDefault(t *testing.T, seed int64) *City {
	t.Helper()
	c, err := Generate(DefaultConfig(seed))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return c
}

func TestGenerateValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty bounds", func(c *Config) { c.Bounds = geo.Rect{} }},
		{"negative photos", func(c *Config) { c.Photos = -1 }},
		{"negative residential", func(c *Config) { c.ResidentialAPs = -1 }},
		{"negative cafes", func(c *Config) { c.CafeAPs = -1 }},
		{"bad background", func(c *Config) { c.PhotoBackground = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			tt.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestGenerateCounts(t *testing.T) {
	cfg := DefaultConfig(1)
	c := generateDefault(t, 1)
	wantAPs := cfg.ResidentialAPs + cfg.CafeAPs
	for _, ch := range cfg.Chains {
		wantAPs += ch.Stores
	}
	for _, h := range cfg.Hotspots {
		wantAPs += h.APs
	}
	if c.DB.Len() != wantAPs {
		t.Errorf("DB has %d records, want %d", c.DB.Len(), wantAPs)
	}
	if len(c.Photos) != cfg.Photos {
		t.Errorf("%d photos, want %d", len(c.Photos), cfg.Photos)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := generateDefault(t, 42)
	b := generateDefault(t, 42)
	if !reflect.DeepEqual(a.DB.Records(), b.DB.Records()) {
		t.Error("same seed produced different AP records")
	}
	if !reflect.DeepEqual(a.Photos, b.Photos) {
		t.Error("same seed produced different photos")
	}
	c := generateDefault(t, 43)
	if reflect.DeepEqual(a.Photos, c.Photos) {
		t.Error("different seeds produced identical photos")
	}
}

func TestGenerateChainCounts(t *testing.T) {
	c := generateDefault(t, 2)
	counts := c.DB.CountBySSID(false)
	if counts["7-Eleven Free Wifi"] != 924 {
		t.Errorf("7-Eleven APs = %d, want 924 (paper's count)", counts["7-Eleven Free Wifi"])
	}
	if counts["#HKAirport Free WiFi"] != 231 {
		t.Errorf("airport APs = %d, want 231 (paper's count)", counts["#HKAirport Free WiFi"])
	}
}

func TestGenerateRecordsInsideBounds(t *testing.T) {
	c := generateDefault(t, 3)
	// A point lies inside the bounds exactly when clamping leaves it be.
	for i, r := range c.DB.Records() {
		if c.Bounds.Clamp(r.Pos) != r.Pos {
			t.Fatalf("record %d at %v outside bounds", i, r.Pos)
		}
	}
	for i, p := range c.Photos {
		if c.Bounds.Clamp(p) != p {
			t.Fatalf("photo %d at %v outside bounds", i, p)
		}
	}
}

func TestGenerateResidentialSecured(t *testing.T) {
	c := generateDefault(t, 4)
	for _, r := range c.DB.Records() {
		if len(r.SSID) > 4 && r.SSID[:4] == "HOME" && r.Open {
			t.Fatalf("residential %q is open", r.SSID)
		}
	}
}

func TestGenerateVenueAPsNearVenue(t *testing.T) {
	c := generateDefault(t, 5)
	var airport HotspotSpec
	for _, h := range c.Hotspots {
		if h.Name == "Airport" {
			airport = h
		}
	}
	for _, r := range c.DB.Records() {
		if r.SSID != airport.SSID {
			continue
		}
		if d := r.Pos.Dist(airport.Center); d > airport.Radius*3 {
			t.Fatalf("airport AP %v is %.0f m from the venue", r.Pos, d)
		}
	}
}

func TestPhotosConcentrateAtVenues(t *testing.T) {
	c := generateDefault(t, 6)
	hm, err := heatmap.FromPhotos(c.Bounds, 250, c.Photos)
	if err != nil {
		t.Fatal(err)
	}
	var airport HotspotSpec
	for _, h := range c.Hotspots {
		if h.Name == "Airport" {
			airport = h
		}
	}
	airportHeat := hm.HeatAt(airport.Center)
	// Compare against an arbitrary cold corner.
	coldHeat := hm.HeatAt(geo.Pt(7800, 200))
	if airportHeat < 10*coldHeat {
		t.Errorf("airport heat %d not ≫ background %d", airportHeat, coldHeat)
	}
}

// TestTableIVShape checks the paper's Table IV phenomenon: the airport SSID
// is outside the top 5 by AP count but inside the top 5 by heat value, and
// the crowd-deployed "Free Public WiFi" is promoted by the heat ranking.
func TestTableIVShape(t *testing.T) {
	c := generateDefault(t, 7)
	hm, err := heatmap.FromPhotos(c.Bounds, 250, c.Photos)
	if err != nil {
		t.Fatal(err)
	}

	byCount := c.DB.TopByAPCount(5)
	inTop := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}
	countTop := make([]string, len(byCount))
	for i, sc := range byCount {
		countTop[i] = sc.SSID
	}
	if inTop(countTop, "#HKAirport Free WiFi") {
		t.Errorf("airport SSID in top-5 by AP count %v; paper ranks it 13th", countTop)
	}
	if !inTop(countTop, "7-Eleven Free Wifi") {
		t.Errorf("7-Eleven missing from top-5 by AP count %v", countTop)
	}

	byHeat := c.DB.RankByHeat(hm)
	heatTop := make([]string, 0, 5)
	for _, sh := range byHeat[:5] {
		heatTop = append(heatTop, sh.SSID)
	}
	if !inTop(heatTop, "#HKAirport Free WiFi") {
		t.Errorf("airport SSID missing from top-5 by heat %v", heatTop)
	}
	if !inTop(heatTop, "Free Public WiFi") {
		t.Errorf("Free Public WiFi missing from top-5 by heat %v", heatTop)
	}
}

func TestGenerateNoHotspots(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Hotspots = nil
	cfg.Chains = []ChainSpec{{SSID: "OnlyChain", Stores: 10, Open: true, NearCrowds: true}}
	cfg.Photos = 100
	c, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate without hotspots: %v", err)
	}
	if got := c.DB.CountBySSID(true)["OnlyChain"]; got != 10 {
		t.Errorf("OnlyChain APs = %d", got)
	}
	if len(c.Photos) != 100 {
		t.Errorf("photos = %d", len(c.Photos))
	}
}

func TestGenerateUniqueBSSIDs(t *testing.T) {
	c := generateDefault(t, 9)
	seen := make(map[string]bool, c.DB.Len())
	for _, r := range c.DB.Records() {
		if seen[r.BSSID] {
			t.Fatalf("duplicate BSSID %s", r.BSSID)
		}
		seen[r.BSSID] = true
	}
}

func TestSparseConfigGenerates(t *testing.T) {
	c, err := Generate(SparseConfig(3))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	dense := generateDefault(t, 3)
	sparseOpen := len(c.DB.CountBySSID(true))
	denseOpen := len(dense.DB.CountBySSID(true))
	if sparseOpen >= denseOpen {
		t.Errorf("sparse city has %d open SSIDs, dense %d; suburb should be thinner",
			sparseOpen, denseOpen)
	}
	// Residential (secured, useless to the attacker) dominates harder.
	counts := c.DB.CountBySSID(false)
	secured := 0
	for ssid, n := range counts {
		if open := c.DB.CountBySSID(true)[ssid]; open == 0 {
			secured += n
		}
	}
	if secured < c.DB.Len()/2 {
		t.Errorf("secured APs = %d of %d; suburbs should be mostly homes", secured, c.DB.Len())
	}
}
