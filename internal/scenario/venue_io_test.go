package scenario

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/mobility"
)

// TestVenueSaveLoadRoundTrip: every built-in venue survives
// EncodeVenueJSON → DecodeVenueJSON field for field, and re-encodes to the
// same bytes.
func TestVenueSaveLoadRoundTrip(t *testing.T) {
	for _, v := range AllVenues() {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			data, err := EncodeVenueJSON(v)
			if err != nil {
				t.Fatalf("EncodeVenueJSON: %v", err)
			}
			back, err := DecodeVenueJSON(data)
			if err != nil {
				t.Fatalf("DecodeVenueJSON: %v", err)
			}
			again, err := EncodeVenueJSON(back)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(data, again) {
				t.Errorf("round trip not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", data, again)
			}
			if back.Name != v.Name || back.Kind != v.Kind {
				t.Errorf("identity changed: %q/%v", back.Name, back.Kind)
			}
			if back.Position != v.Position || back.RadioRange != v.RadioRange {
				t.Error("geometry changed")
			}
			if back.MovingFraction != v.MovingFraction {
				t.Error("moving fraction changed")
			}
			if len(back.Profile.PerMinute) != len(v.Profile.PerMinute) {
				t.Fatal("profile length changed")
			}
			for i := range back.Profile.PerMinute {
				if back.Profile.PerMinute[i] != v.Profile.PerMinute[i] {
					t.Fatalf("profile slot %d changed", i)
				}
			}
			if back.StaticDwell != v.StaticDwell {
				t.Error("static dwell changed")
			}
			if back.MovingDwell != v.MovingDwell {
				t.Error("moving dwell changed")
			}
			if len(back.RushSlots) != len(v.RushSlots) {
				t.Error("rush slots changed")
			}
		})
	}
}

// TestDecodeVenueJSONValidation: DecodeVenueJSON rejects malformed documents,
// unknown fields and every semantic violation Venue.Validate catches.
func TestDecodeVenueJSONValidation(t *testing.T) {
	tests := []struct {
		name string
		json string
	}{
		{"garbage", `{not json`},
		{"unknown kind", `{"name":"x","kind":"volcano","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.1,"maxMinutes":30}}`},
		{"missing name", `{"kind":"canteen","radioRange":50,"arrivalsPerMinute":[1]}`},
		{"zero range", `{"name":"x","kind":"canteen","radioRange":0,"arrivalsPerMinute":[1]}`},
		{"empty profile", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[]}`},
		{"negative rate", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[-1]}`},
		{"bad moving fraction", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":2}`},
		{"rush slot out of range", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"rushSlots":[5],"staticDwell":{"medianMinutes":5,"sigma":0.1,"maxMinutes":30}}`},
		{"moving without model", `{"name":"x","kind":"passage","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":1}`},
		{"static without model", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":0}`},
		{"unknown field", `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.1,"maxMinutes":30},"futureField":1}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeVenueJSON([]byte(tt.json)); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestDecodeVenueJSONDwellBounds: malformed dwell parameters are refused
// as FieldErrors naming the JSON field, before minutes become a
// time.Duration (1e12 minutes would wrap negative).
func TestDecodeVenueJSONDwellBounds(t *testing.T) {
	static := func(median, sigma, max string) string {
		return `{"name":"x","kind":"canteen","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":` +
			median + `,"sigma":` + sigma + `,"maxMinutes":` + max + `}}`
	}
	moving := func(length, lo, hi string) string {
		return `{"name":"x","kind":"passage","radioRange":50,"arrivalsPerMinute":[1],"movingFraction":1,"movingDwell":{"pathLengthMetres":` +
			length + `,"speedMinMps":` + lo + `,"speedMaxMps":` + hi + `}}`
	}
	tests := []struct {
		name, json, path string
	}{
		{"zero median", static("0", "0.5", "20"), "staticDwell.medianMinutes"},
		{"negative median", static("-5", "0.5", "20"), "staticDwell.medianMinutes"},
		{"overflowing median", static("1e12", "0.5", "20"), "staticDwell.medianMinutes"},
		{"sub-nanosecond median", static("1e-12", "0.5", "20"), "staticDwell.medianMinutes"},
		{"zero max", static("5", "0.5", "0"), "staticDwell.maxMinutes"},
		{"max past a day", static("5", "0.5", "1441"), "staticDwell.maxMinutes"},
		{"negative sigma", static("5", "-0.1", "20"), "staticDwell.sigma"},
		{"zero path", moving("0", "1", "2"), "movingDwell.pathLengthMetres"},
		{"zero min speed", moving("90", "0", "2"), "movingDwell.speedMinMps"},
		{"negative max speed", moving("90", "1", "-2"), "movingDwell.speedMaxMps"},
		{"inverted speeds", moving("90", "2", "1"), "movingDwell.speedMaxMps"},
		{"day-long corridor", moving("1e9", "1", "2"), "movingDwell.pathLengthMetres"},
	}
	for _, tt := range tests {
		_, err := DecodeVenueJSON([]byte(tt.json))
		var fe *FieldError
		if !errors.As(err, &fe) || fe.Path != tt.path {
			t.Errorf("%s: err = %v, want a FieldError at %s", tt.name, err, tt.path)
		}
	}
	if _, err := DecodeVenueJSON([]byte(static("1440", "0", "1440"))); err != nil {
		t.Errorf("day-long dwell with sigma 0 refused: %v", err)
	}

	// Venues built in Go get the same bounds from Venue.Validate.
	v := CanteenVenue()
	v.StaticDwell = mobility.StaticDwell{Median: 5 * time.Minute, Sigma: math.NaN(), Max: time.Hour}
	var fe *FieldError
	if err := v.Validate(); !errors.As(err, &fe) || fe.Path != "staticDwell.sigma" {
		t.Errorf("NaN sigma: err = %v, want a FieldError at staticDwell.sigma", err)
	}
}

// TestDecodeVenueJSONHandWritten: a hand-written venue document decodes through
// DecodeVenueJSON and runs.
func TestDecodeVenueJSONHandWritten(t *testing.T) {
	const doc = `{
		"name": "night market",
		"kind": "mall",
		"position": {"x": 1000, "y": 2000},
		"radioRange": 40,
		"startHour": 18,
		"arrivalsPerMinute": [10, 18, 20, 12],
		"movingFraction": 0.4,
		"staticDwell": {"medianMinutes": 8, "sigma": 0.4, "maxMinutes": 40},
		"movingDwell": {"pathLengthMetres": 70, "speedMinMps": 0.8, "speedMaxMps": 1.4},
		"rushSlots": [1, 2]
	}`
	v, err := DecodeVenueJSON([]byte(doc))
	if err != nil {
		t.Fatalf("DecodeVenueJSON: %v", err)
	}
	if v.Kind != Mall || v.Profile.StartHour != 18 || !v.IsRush(2) || v.IsRush(0) {
		t.Errorf("venue = %+v", v)
	}
	if v.Profile.SlotLabel(0) != "6pm-7pm" {
		t.Errorf("label = %q", v.Profile.SlotLabel(0))
	}
	// A decoded venue must be runnable.
	cfg := baseConfig(t, v, CityHunter, 71)
	cfg.ArrivalScale = 0.5
	res, err := RunContext(context.Background(), cfg, 1, 4*time.Minute)
	if err != nil {
		t.Fatalf("Run on decoded venue: %v", err)
	}
	if res.Venue != "night market" {
		t.Errorf("result venue = %q", res.Venue)
	}
}

// TestEncodeVenueJSONRejectsCustomDwell: EncodeVenueJSON encodes only the
// built-in dwell models.
func TestEncodeVenueJSONRejectsCustomDwell(t *testing.T) {
	v := CanteenVenue()
	v.StaticDwell = mobility.HybridDwell{
		StaticFraction: 0.5,
		Static:         v.StaticDwell,
		Moving:         v.MovingDwell,
	}
	if _, err := EncodeVenueJSON(v); err == nil || !strings.Contains(err.Error(), "not encodable") {
		t.Errorf("custom dwell model: err = %v, want a not-encodable complaint", err)
	}
}
