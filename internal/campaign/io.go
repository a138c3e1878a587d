package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cityhunter/internal/scenario"
)

// campaignFile is the JSON form of a campaign: a list of declarative run
// specs. Venues are embedded in the EncodeVenueJSON format (or referenced
// by built-in name in hand-written files); attacks are encoded by name.
type campaignFile struct {
	Runs []runFile `json:"runs"`
}

type runFile struct {
	Name string `json:"name,omitempty"`
	// Venue names a built-in venue (passage|canteen|mall|station);
	// VenueSpec embeds a full venue in the EncodeVenueJSON format. Exactly
	// one must be set; EncodeSpecsJSON always writes VenueSpec.
	Venue     string          `json:"venue,omitempty"`
	VenueSpec json.RawMessage `json:"venueSpec,omitempty"`
	Attack    string          `json:"attack"`
	Slot      int             `json:"slot"`
	Minutes   float64         `json:"minutes"`
	Seed      int64           `json:"seed,omitempty"`

	DirectProberFraction *float64 `json:"directProberFraction,omitempty"`
	ScanIntervalSeconds  *float64 `json:"scanIntervalSeconds,omitempty"`
	ArrivalScale         *float64 `json:"arrivalScale,omitempty"`
	FrameLoss            *float64 `json:"frameLoss,omitempty"`
	CanaryFraction       *float64 `json:"canaryFraction,omitempty"`
	RandomizeMACFraction *float64 `json:"randomizeMacFraction,omitempty"`
	PreconnectedFraction *float64 `json:"preconnectedFraction,omitempty"`
	Deauth               bool     `json:"deauth,omitempty"`
	Sentinel             bool     `json:"sentinel,omitempty"`
	CautiousMirror       bool     `json:"cautiousMirror,omitempty"`
	Randomization        string   `json:"randomization,omitempty"`
	Linker               string   `json:"linker,omitempty"`
}

// attackNames maps the file encoding to attack kinds; attackFileName is the
// canonical reverse mapping used by EncodeSpecsJSON.
var attackNames = map[string]scenario.AttackKind{
	"karma":         scenario.KARMA,
	"mana":          scenario.MANA,
	"prelim":        scenario.CityHunterPreliminary,
	"cityhunter":    scenario.CityHunter,
	"known-beacons": scenario.KnownBeacons,
}

func attackFileName(k scenario.AttackKind) string {
	for name, kind := range attackNames {
		if kind == k {
			return name
		}
	}
	return ""
}

// AttackByName resolves the file encoding of an attack
// (karma|mana|prelim|cityhunter|known-beacons) — the same names campaign
// files and job submissions use.
func AttackByName(name string) (scenario.AttackKind, bool) {
	k, ok := attackNames[name]
	return k, ok
}

// AttackName returns an attack kind's file encoding, or "" when the kind
// has none.
func AttackName(k scenario.AttackKind) string { return attackFileName(k) }

// builtinVenues resolves the by-name venue references of hand-written
// campaign files.
var builtinVenues = map[string]func() scenario.Venue{
	"passage": scenario.PassageVenue,
	"canteen": scenario.CanteenVenue,
	"mall":    scenario.MallVenue,
	"station": scenario.StationVenue,
}

// VenueByName resolves a built-in venue name
// (passage|canteen|mall|station) — the same names campaign files use.
func VenueByName(name string) (scenario.Venue, bool) {
	mk, ok := builtinVenues[name]
	if !ok {
		return scenario.Venue{}, false
	}
	return mk(), true
}

// EncodeSpecsJSON renders campaign specs in their canonical (compact) file
// form — the payload the plan envelope embeds. Only the declarative spec
// fields are encodable: a spec carrying a Configure hook or a Deployment
// cannot round-trip and is rejected by name.
func EncodeSpecsJSON(specs []Spec) (json.RawMessage, error) {
	cf, err := encodeSpecs(specs)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(cf)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode: %w", err)
	}
	return data, nil
}

func encodeSpecs(specs []Spec) (campaignFile, error) {
	cf := campaignFile{Runs: make([]runFile, len(specs))}
	for i, s := range specs {
		if s.Configure != nil {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): Configure hooks are not serialisable", i, s.Name)
		}
		if s.Deployment != nil {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): deployment specs are not serialisable (persist the deployment as a KindDeployment plan)", i, s.Name)
		}
		venueSpec, err := scenario.EncodeVenueJSON(s.Venue)
		if err != nil {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): %w", i, s.Name, err)
		}
		attack := attackFileName(s.Attack)
		if attack == "" {
			return campaignFile{}, fmt.Errorf("campaign: spec %d (%s): attack kind %d not encodable", i, s.Name, int(s.Attack))
		}
		rf := runFile{
			Name:                 s.Name,
			VenueSpec:            venueSpec,
			Attack:               attack,
			Slot:                 s.Slot,
			Minutes:              s.Duration.Minutes(),
			Seed:                 s.Seed,
			DirectProberFraction: s.DirectProberFraction,
			ArrivalScale:         s.ArrivalScale,
			FrameLoss:            s.FrameLoss,
			CanaryFraction:       s.CanaryFraction,
			RandomizeMACFraction: s.RandomizeMACFraction,
			PreconnectedFraction: s.PreconnectedFraction,
			Deauth:               s.Deauth,
			Sentinel:             s.Sentinel,
			CautiousMirror:       s.CautiousMirror,
			Randomization:        s.Randomization,
			Linker:               s.Linker,
		}
		if s.ScanInterval != nil {
			secs := s.ScanInterval.Seconds()
			rf.ScanIntervalSeconds = &secs
		}
		cf.Runs[i] = rf
	}
	return cf, nil
}

// DecodeSpecsJSON parses and validates campaign specs in the
// EncodeSpecsJSON format, naming the offending run and field in every
// error. Unknown fields are rejected, inside embedded venueSpec documents
// too.
func DecodeSpecsJSON(data []byte) ([]Spec, error) {
	var cf campaignFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cf); err != nil {
		return nil, fmt.Errorf("campaign: decode: %w", err)
	}
	if len(cf.Runs) == 0 {
		return nil, fmt.Errorf("campaign: file declares no runs")
	}
	specs := make([]Spec, len(cf.Runs))
	for i, rf := range cf.Runs {
		name := rf.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		s := Spec{Name: rf.Name, Slot: rf.Slot, Seed: rf.Seed}
		switch {
		case rf.Venue != "" && rf.VenueSpec != nil:
			return nil, fmt.Errorf("campaign: run %d (%s): venue and venueSpec are mutually exclusive", i, name)
		case rf.Venue != "":
			v, ok := VenueByName(rf.Venue)
			if !ok {
				return nil, fmt.Errorf("campaign: run %d (%s): unknown venue %q (want passage|canteen|mall|station or a venueSpec)", i, name, rf.Venue)
			}
			s.Venue = v
		case rf.VenueSpec != nil:
			v, err := scenario.DecodeVenueJSON(rf.VenueSpec)
			if err != nil {
				return nil, fmt.Errorf("campaign: run %d (%s): venueSpec: %w", i, name, err)
			}
			s.Venue = v
		default:
			return nil, fmt.Errorf("campaign: run %d (%s): venue is required (a built-in name or a venueSpec)", i, name)
		}
		kind, ok := attackNames[rf.Attack]
		if !ok {
			return nil, fmt.Errorf("campaign: run %d (%s): unknown attack %q (want karma|mana|prelim|cityhunter|known-beacons)", i, name, rf.Attack)
		}
		s.Attack = kind
		if rf.Minutes <= 0 {
			return nil, fmt.Errorf("campaign: run %d (%s): minutes %v must be positive", i, name, rf.Minutes)
		}
		s.Duration = time.Duration(rf.Minutes * float64(time.Minute))
		if rf.ScanIntervalSeconds != nil {
			if *rf.ScanIntervalSeconds <= 0 {
				return nil, fmt.Errorf("campaign: run %d (%s): scanIntervalSeconds %v must be positive", i, name, *rf.ScanIntervalSeconds)
			}
			d := time.Duration(*rf.ScanIntervalSeconds * float64(time.Second))
			s.ScanInterval = &d
		}
		s.DirectProberFraction = rf.DirectProberFraction
		s.ArrivalScale = rf.ArrivalScale
		s.FrameLoss = rf.FrameLoss
		s.CanaryFraction = rf.CanaryFraction
		s.RandomizeMACFraction = rf.RandomizeMACFraction
		s.PreconnectedFraction = rf.PreconnectedFraction
		s.Deauth = rf.Deauth
		s.Sentinel = rf.Sentinel
		s.CautiousMirror = rf.CautiousMirror
		s.Randomization = rf.Randomization
		s.Linker = rf.Linker
		// Semantic checks (slot, fraction ranges, …) live in Spec.Validate
		// so loaders, programmatic campaigns and the job server agree.
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: run %d (%s): %w", i, name, err)
		}
		specs[i] = s
	}
	return specs, nil
}
