package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/mobility"
)

// venueFile is the JSON form of a Venue. Dwell models are encoded by kind
// so the format stays declarative and forward-compatible. It is the single
// venue codec behind the plan envelope's venue payload and the deployment
// and campaign payloads (which embed venues inline).
type venueFile struct {
	Name           string           `json:"name"`
	Kind           string           `json:"kind"`
	Position       geo.Point        `json:"position"`
	RadioRange     float64          `json:"radioRange"`
	StartHour      int              `json:"startHour"`
	ArrivalsPerMin []float64        `json:"arrivalsPerMinute"`
	MovingFraction float64          `json:"movingFraction"`
	Static         *staticDwellFile `json:"staticDwell,omitempty"`
	Moving         *movingDwellFile `json:"movingDwell,omitempty"`
	RushSlots      []int            `json:"rushSlots,omitempty"`
}

type staticDwellFile struct {
	MedianMinutes float64 `json:"medianMinutes"`
	Sigma         float64 `json:"sigma"`
	MaxMinutes    float64 `json:"maxMinutes"`
}

type movingDwellFile struct {
	PathLengthMetres float64 `json:"pathLengthMetres"`
	SpeedMinMPS      float64 `json:"speedMinMps"`
	SpeedMaxMPS      float64 `json:"speedMaxMps"`
}

var kindNames = map[string]VenueKind{
	"passage": Passage,
	"canteen": Canteen,
	"mall":    Mall,
	"station": Station,
}

// EncodeVenueJSON renders a venue in its canonical (compact) file form —
// the payload the plan envelope and the campaign format embed.
func EncodeVenueJSON(v Venue) (json.RawMessage, error) {
	vf, err := encodeVenue(v)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(vf)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode venue: %w", err)
	}
	return data, nil
}

// DecodeVenueJSON parses and validates a venue in the EncodeVenueJSON
// format, rejecting unknown fields.
func DecodeVenueJSON(data []byte) (Venue, error) {
	var vf venueFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&vf); err != nil {
		return Venue{}, fmt.Errorf("scenario: decode venue: %w", err)
	}
	return decodeVenue(vf)
}

// encodeVenue converts a venue to its file form (shared with the
// deployment format, which embeds sites inline).
func encodeVenue(v Venue) (venueFile, error) {
	vf := venueFile{
		Name:           v.Name,
		Position:       v.Position,
		RadioRange:     v.RadioRange,
		StartHour:      v.Profile.StartHour,
		ArrivalsPerMin: v.Profile.PerMinute,
		MovingFraction: v.MovingFraction,
		RushSlots:      v.RushSlots,
	}
	for name, kind := range kindNames {
		if kind == v.Kind {
			vf.Kind = name
		}
	}
	if vf.Kind == "" {
		return venueFile{}, fmt.Errorf("scenario: venue kind %v not encodable", v.Kind)
	}
	switch d := v.StaticDwell.(type) {
	case mobility.StaticDwell:
		vf.Static = &staticDwellFile{
			MedianMinutes: d.Median.Minutes(),
			Sigma:         d.Sigma,
			MaxMinutes:    d.Max.Minutes(),
		}
	case nil:
	default:
		return venueFile{}, fmt.Errorf("scenario: static dwell %T not encodable", v.StaticDwell)
	}
	switch d := v.MovingDwell.(type) {
	case mobility.CorridorDwell:
		vf.Moving = &movingDwellFile{
			PathLengthMetres: d.PathLength,
			SpeedMinMPS:      d.SpeedMin,
			SpeedMaxMPS:      d.SpeedMax,
		}
	case nil:
	default:
		return venueFile{}, fmt.Errorf("scenario: moving dwell %T not encodable", v.MovingDwell)
	}
	return vf, nil
}

// dwellMinutes converts a dwell field given in minutes, refusing anything
// outside (0, maxDwell] before the conversion can wrap.
func dwellMinutes(path string, minutes float64) (time.Duration, error) {
	if !(minutes > 0 && minutes <= maxDwell.Minutes()) {
		return 0, fmt.Errorf("scenario: %w", fieldf(path, "%s %v outside (0, %v]", path, minutes, maxDwell.Minutes()))
	}
	return time.Duration(minutes * float64(time.Minute)), nil
}

// decodeVenue converts a venue's file form and validates it via
// Venue.Validate (shared with the deployment format).
func decodeVenue(vf venueFile) (Venue, error) {
	kind, ok := kindNames[vf.Kind]
	if !ok {
		return Venue{}, fmt.Errorf("scenario: unknown venue kind %q", vf.Kind)
	}
	v := Venue{
		Name:           vf.Name,
		Kind:           kind,
		Position:       vf.Position,
		RadioRange:     vf.RadioRange,
		Profile:        mobility.Profile{StartHour: vf.StartHour, PerMinute: vf.ArrivalsPerMin},
		MovingFraction: vf.MovingFraction,
		RushSlots:      vf.RushSlots,
	}
	if vf.Static != nil {
		median, err := dwellMinutes("staticDwell.medianMinutes", vf.Static.MedianMinutes)
		if err != nil {
			return Venue{}, err
		}
		maxDur, err := dwellMinutes("staticDwell.maxMinutes", vf.Static.MaxMinutes)
		if err != nil {
			return Venue{}, err
		}
		v.StaticDwell = mobility.StaticDwell{Median: median, Sigma: vf.Static.Sigma, Max: maxDur}
	}
	if vf.Moving != nil {
		v.MovingDwell = mobility.CorridorDwell{
			PathLength: vf.Moving.PathLengthMetres,
			SpeedMin:   vf.Moving.SpeedMinMPS,
			SpeedMax:   vf.Moving.SpeedMaxMPS,
		}
	}
	if err := v.Validate(); err != nil {
		return Venue{}, fmt.Errorf("scenario: %w", err)
	}
	return v, nil
}
