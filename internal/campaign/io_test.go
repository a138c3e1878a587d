package campaign

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/scenario"
)

func roundTripSpecs() []Spec {
	scan := 40 * time.Second
	frac := 0.25
	scale := 0.7
	return []Spec{
		{
			Name:     "lunch baseline",
			Venue:    scenario.CanteenVenue(),
			Attack:   scenario.CityHunter,
			Slot:     4,
			Duration: 30 * time.Minute,
		},
		{
			Name:                 "defended rush",
			Venue:                scenario.PassageVenue(),
			Attack:               scenario.MANA,
			Slot:                 0,
			Duration:             90 * time.Second,
			Seed:                 42,
			ScanInterval:         &scan,
			CanaryFraction:       &frac,
			ArrivalScale:         &scale,
			Deauth:               true,
			Sentinel:             true,
			CautiousMirror:       true,
			DirectProberFraction: &frac,
			Randomization:        "per-burst",
			Linker:               "composite",
		},
	}
}

// TestCampaignRoundTrip checks EncodeSpecsJSON → DecodeSpecsJSON →
// EncodeSpecsJSON byte equality — the same stability contract the venue
// codec makes.
func TestCampaignRoundTrip(t *testing.T) {
	first, err := EncodeSpecsJSON(roundTripSpecs())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	loaded, err := DecodeSpecsJSON(first)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(loaded) != 2 {
		t.Fatalf("decoded %d specs, want 2", len(loaded))
	}
	second, err := EncodeSpecsJSON(loaded)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	got := loaded[1]
	if got.Name != "defended rush" || got.Seed != 42 || !got.Deauth || !got.Sentinel || !got.CautiousMirror {
		t.Errorf("scalar fields lost: %+v", got)
	}
	if got.ScanInterval == nil || *got.ScanInterval != 40*time.Second {
		t.Errorf("scan interval lost: %v", got.ScanInterval)
	}
	if got.CanaryFraction == nil || *got.CanaryFraction != 0.25 {
		t.Errorf("canary fraction lost: %v", got.CanaryFraction)
	}
	if got.Venue.Name != scenario.PassageVenue().Name {
		t.Errorf("venue lost: %q", got.Venue.Name)
	}
	if got.Duration != 90*time.Second {
		t.Errorf("duration = %v, want 90s", got.Duration)
	}
	if got.Randomization != "per-burst" || got.Linker != "composite" {
		t.Errorf("randomization/linker lost: %q %q", got.Randomization, got.Linker)
	}
}

// TestLegacySpecsOmitRandomizationFields: specs predating the
// identity/observable split serialise byte-identically — the new keys are
// omitted, not written as empty strings, so legacy plans round-trip
// unchanged (the plan-envelope goldens pin the same contract).
func TestLegacySpecsOmitRandomizationFields(t *testing.T) {
	specs := roundTripSpecs()
	specs[1].Randomization = ""
	specs[1].Linker = ""
	data, err := EncodeSpecsJSON(specs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for _, key := range []string{`"randomization"`, `"linker"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("legacy spec output contains %s:\n%s", key, data)
		}
	}
}

// TestSaveRejectsConfigureHook: programmatic hooks cannot round-trip and
// must be refused by spec name, not silently dropped.
func TestSaveRejectsConfigureHook(t *testing.T) {
	specs := roundTripSpecs()
	specs[1].Configure = func(*scenario.Config) {}
	_, err := EncodeSpecsJSON(specs)
	if err == nil {
		t.Fatal("Configure hook serialised")
	}
	for _, want := range []string{"spec 1", "defended rush", "Configure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestSaveRejectsDeploymentSpec: deployment specs carry live venue slices
// and a knowledge plane that a deployment plan owns; EncodeSpecsJSON
// refuses them by name and points at the right persistence path.
func TestSaveRejectsDeploymentSpec(t *testing.T) {
	specs := roundTripSpecs()
	specs[0].Deployment = &scenario.DeploymentConfig{Sites: []scenario.Venue{scenario.CanteenVenue()}}
	_, err := EncodeSpecsJSON(specs)
	if err == nil {
		t.Fatal("deployment spec serialised")
	}
	for _, want := range []string{"spec 0", "KindDeployment plan"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestLoadBuiltinVenueNames: hand-written files may reference venues by
// name instead of embedding a venueSpec.
func TestLoadBuiltinVenueNames(t *testing.T) {
	specs, err := DecodeSpecsJSON([]byte(`{"runs": [
		{"name": "by-name", "venue": "mall", "attack": "karma", "slot": 2, "minutes": 5}
	]}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if specs[0].Venue.Name != scenario.MallVenue().Name {
		t.Errorf("venue = %q, want the mall", specs[0].Venue.Name)
	}
	if specs[0].Attack != scenario.KARMA || specs[0].Duration != 5*time.Minute {
		t.Errorf("fields lost: %+v", specs[0])
	}
}

// TestLoadValidationNamesField: every rejection identifies the run (index
// and name) and the offending field.
func TestLoadValidationNamesField(t *testing.T) {
	cases := []struct {
		label string
		json  string
		wants []string
	}{
		{"no venue", `{"runs": [{"name": "x", "attack": "karma", "slot": 0, "minutes": 5}]}`,
			[]string{"run 0 (x)", "venue is required"}},
		{"unknown venue", `{"runs": [{"venue": "casino", "attack": "karma", "slot": 0, "minutes": 5}]}`,
			[]string{"run 0 (run 0)", `unknown venue "casino"`}},
		{"unknown attack", `{"runs": [{"name": "a", "venue": "mall", "attack": "wep-crack", "slot": 0, "minutes": 5}]}`,
			[]string{"run 0 (a)", `unknown attack "wep-crack"`}},
		{"bad minutes", `{"runs": [{"name": "b", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 0}]}`,
			[]string{"run 0 (b)", "minutes"}},
		{"bad slot", `{"runs": [{"name": "c", "venue": "mall", "attack": "karma", "slot": 30, "minutes": 5}]}`,
			[]string{"run 0 (c)", "slot 30"}},
		{"bad fraction", `{"runs": [{"name": "d", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 5, "canaryFraction": 1.5}]}`,
			[]string{"run 0 (d)", "canaryFraction 1.5"}},
		{"bad loss", `{"runs": [{"name": "e", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 5, "frameLoss": 1}]}`,
			[]string{"run 0 (e)", "frameLoss 1"}},
		{"bad scan interval", `{"runs": [{"name": "f", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 5, "scanIntervalSeconds": -3}]}`,
			[]string{"run 0 (f)", "scanIntervalSeconds -3"}},
		{"both venue forms", `{"runs": [{"name": "g", "venue": "mall", "venueSpec": {}, "attack": "karma", "slot": 0, "minutes": 5}]}`,
			[]string{"run 0 (g)", "mutually exclusive"}},
		{"unknown randomization", `{"runs": [{"name": "i", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 5, "randomization": "hourly"}]}`,
			[]string{"run 0 (i)", `unknown randomization "hourly"`}},
		{"unknown linker", `{"runs": [{"name": "j", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 5, "linker": "ml"}]}`,
			[]string{"run 0 (j)", `unknown linker "ml"`}},
		{"unknown field", `{"runs": [{"name": "h", "venue": "mall", "attack": "karma", "slot": 0, "minutes": 5, "turbo": true}]}`,
			[]string{"turbo"}},
		{"unknown venueSpec field", `{"runs": [{"name": "k", "venueSpec": {"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20},"overclock":2}, "attack": "karma", "slot": 0, "minutes": 5}]}`,
			[]string{"run 0 (k)", "venueSpec", `"overclock"`}},
		{"empty file", `{"runs": []}`, []string{"no runs"}},
	}
	for _, tc := range cases {
		_, err := DecodeSpecsJSON([]byte(tc.json))
		if err == nil {
			t.Errorf("%s: accepted", tc.label)
			continue
		}
		for _, want := range tc.wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not contain %q", tc.label, err, want)
			}
		}
	}
}
