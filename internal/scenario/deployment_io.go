package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"cityhunter/internal/mobility"
)

// deploymentFile is the JSON form of a deployment plan: the sites (in the
// venue format EncodeVenueJSON uses), the knowledge plane, and the roaming
// model. The Base experiment configuration is NOT part of the format —
// like campaign files, a deployment plan describes where and how to
// deploy, while the city, attack kind and population knobs come from the
// caller (or the CLI flags).
type deploymentFile struct {
	Sites        []venueFile  `json:"sites"`
	Knowledge    string       `json:"knowledge"`
	SyncEverySec float64      `json:"syncEverySeconds,omitempty"`
	RoamFraction float64      `json:"roamFraction"`
	Transit      *transitFile `json:"transit,omitempty"`
	// Partitions is how many goroutines run the site groups (0 or 1 one,
	// -1 one per group, positive at most that many); it changes wall time
	// only. Omitted for 0 so every pre-partitioning plan round-trips
	// byte-identically.
	Partitions int `json:"partitions,omitempty"`
}

type transitFile struct {
	SpeedMinMPS float64 `json:"speedMinMps"`
	SpeedMaxMPS float64 `json:"speedMaxMps"`
}

var knowledgeNames = map[string]KnowledgePlane{
	"isolated":      Isolated,
	"periodic-sync": PeriodicSync,
	"shared":        Shared,
}

// EncodeDeploymentJSON renders a deployment plan in its canonical
// (compact) file form — the payload the plan envelope embeds.
func EncodeDeploymentJSON(dcfg DeploymentConfig) (json.RawMessage, error) {
	df, err := encodeDeployment(dcfg)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(df)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode deployment: %w", err)
	}
	return data, nil
}

func encodeDeployment(dcfg DeploymentConfig) (deploymentFile, error) {
	df := deploymentFile{
		RoamFraction: dcfg.RoamFraction,
	}
	for name, plane := range knowledgeNames {
		if plane == dcfg.Knowledge {
			df.Knowledge = name
		}
	}
	if df.Knowledge == "" {
		return deploymentFile{}, fmt.Errorf("scenario: knowledge plane %v not encodable", dcfg.Knowledge)
	}
	if len(dcfg.Sites) == 0 {
		return deploymentFile{}, fmt.Errorf("scenario: deployment needs at least one site")
	}
	for i, v := range dcfg.Sites {
		vf, err := encodeVenue(v)
		if err != nil {
			return deploymentFile{}, fmt.Errorf("scenario: site %d: %w", i, err)
		}
		df.Sites = append(df.Sites, vf)
	}
	if dcfg.SyncEvery > 0 {
		df.SyncEverySec = dcfg.SyncEvery.Seconds()
	}
	if dcfg.Transit != (mobility.TransitModel{}) {
		df.Transit = &transitFile{
			SpeedMinMPS: dcfg.Transit.SpeedMin,
			SpeedMaxMPS: dcfg.Transit.SpeedMax,
		}
	}
	df.Partitions = dcfg.Partitions
	return df, nil
}

// DecodeDeploymentJSON parses and validates a deployment plan in the
// EncodeDeploymentJSON format, rejecting unknown fields anywhere in the
// document. An omitted knowledge plane defaults to isolated. The returned
// config has an empty Base; fill it before running.
func DecodeDeploymentJSON(data []byte) (DeploymentConfig, error) {
	var df deploymentFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&df); err != nil {
		return DeploymentConfig{}, fmt.Errorf("scenario: decode deployment: %w", err)
	}
	var dcfg DeploymentConfig
	if df.Knowledge == "" {
		df.Knowledge = "isolated"
	}
	plane, ok := knowledgeNames[df.Knowledge]
	if !ok {
		return DeploymentConfig{}, fmt.Errorf("scenario: unknown knowledge plane %q", df.Knowledge)
	}
	dcfg.Knowledge = plane
	for i, vf := range df.Sites {
		v, err := decodeVenue(vf)
		if err != nil {
			return DeploymentConfig{}, fmt.Errorf("scenario: site %d: %w", i, err)
		}
		dcfg.Sites = append(dcfg.Sites, v)
	}
	dcfg.RoamFraction = df.RoamFraction
	dcfg.SyncEvery = time.Duration(df.SyncEverySec * float64(time.Second))
	if df.Transit != nil {
		dcfg.Transit = mobility.TransitModel{
			SpeedMin: df.Transit.SpeedMinMPS,
			SpeedMax: df.Transit.SpeedMaxMPS,
		}
	}
	dcfg.Partitions = df.Partitions
	if err := dcfg.Validate(); err != nil {
		return DeploymentConfig{}, fmt.Errorf("scenario: %w", err)
	}
	return dcfg, nil
}
