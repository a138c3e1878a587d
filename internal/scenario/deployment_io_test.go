package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"cityhunter/internal/mobility"
)

// TestDeploymentRoundTrip: a deployment survives EncodeDeploymentJSON →
// DecodeDeploymentJSON, re-encodes to the same bytes, and runs once a Base
// is filled in.
func TestDeploymentRoundTrip(t *testing.T) {
	in := DeploymentConfig{
		Sites:        []Venue{CanteenVenue(), PassageVenue(), MallVenue()},
		Knowledge:    PeriodicSync,
		SyncEvery:    45 * time.Second,
		RoamFraction: 0.35,
		Transit:      mobility.TransitModel{SpeedMin: 1.0, SpeedMax: 2.0},
	}
	data, err := EncodeDeploymentJSON(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeDeploymentJSON(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again, err := EncodeDeploymentJSON(out)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("round trip not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", data, again)
	}
	if out.Knowledge != in.Knowledge || out.SyncEvery != in.SyncEvery ||
		out.RoamFraction != in.RoamFraction || out.Transit != in.Transit {
		t.Fatalf("plane fields did not round-trip: %+v", out)
	}
	if len(out.Sites) != len(in.Sites) {
		t.Fatalf("%d sites round-tripped to %d", len(in.Sites), len(out.Sites))
	}
	for i := range in.Sites {
		if out.Sites[i].Name != in.Sites[i].Name || out.Sites[i].Position != in.Sites[i].Position {
			t.Errorf("site %d diverged: %+v", i, out.Sites[i])
		}
	}
	// A decoded plan plus a Base must actually run.
	out.Base = baseConfig(t, Venue{}, CityHunter, 1)
	out.Base.ArrivalScale = 0.25
	if _, err := RunDeploymentContext(context.Background(), out, 0, time.Minute); err != nil {
		t.Fatalf("decoded deployment does not run: %v", err)
	}
}

// TestEncodeDeploymentJSONErrors: EncodeDeploymentJSON refuses unencodable
// planes, empty site lists and unencodable sites, naming the site.
func TestEncodeDeploymentJSONErrors(t *testing.T) {
	if _, err := EncodeDeploymentJSON(DeploymentConfig{Knowledge: KnowledgePlane(7), Sites: []Venue{CanteenVenue()}}); err == nil ||
		!strings.Contains(err.Error(), "not encodable") {
		t.Errorf("bad knowledge plane: %v", err)
	}
	if _, err := EncodeDeploymentJSON(DeploymentConfig{}); err == nil ||
		!strings.Contains(err.Error(), "at least one site") {
		t.Errorf("empty site list: %v", err)
	}
	custom := CanteenVenue()
	custom.Kind = VenueKind(42)
	if _, err := EncodeDeploymentJSON(DeploymentConfig{Sites: []Venue{custom}}); err == nil ||
		!strings.Contains(err.Error(), "site 0") {
		t.Errorf("unencodable site kind: %v", err)
	}
}

// TestDecodeDeploymentJSONErrors: every DecodeDeploymentJSON rejection names its
// cause, and an omitted knowledge plane defaults to isolated.
func TestDecodeDeploymentJSONErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"garbage", "{", "decode deployment"},
		{"unknown plane", `{"knowledge":"telepathy","sites":[]}`, `unknown knowledge plane "telepathy"`},
		{"no sites", `{"knowledge":"isolated","sites":[]}`, "at least one site"},
		{"bad site", `{"knowledge":"shared","sites":[{"kind":"canteen","name":"x","radioRange":-3}]}`, "site 0"},
		{"bad roam", `{"knowledge":"shared","roamFraction":2,"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, "roam fraction 2 outside [0,1]"},
		{"bad sync", `{"knowledge":"shared","syncEverySeconds":-4,"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, "sync period"},
		{"bad transit", `{"knowledge":"shared","transit":{"speedMinMps":2,"speedMaxMps":1},"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, "transit speed max"},
		{"unknown field", `{"knowledge":"shared","teleport":true,"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`, `"teleport"`},
		{"unknown site field", `{"knowledge":"shared","sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20},"lasers":1}]}`, `"lasers"`},
	}
	for _, tc := range cases {
		_, err := DecodeDeploymentJSON([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Omitted knowledge defaults to isolated for hand-written plans.
	dcfg, err := DecodeDeploymentJSON([]byte(
		`{"sites":[{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}]}`))
	if err != nil {
		t.Fatalf("minimal plan rejected: %v", err)
	}
	if dcfg.Knowledge != Isolated {
		t.Errorf("omitted knowledge plane decoded as %v", dcfg.Knowledge)
	}
}
