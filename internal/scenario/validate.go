package scenario

import (
	"fmt"
	"math"
	"time"

	"cityhunter/internal/mobility"
)

// maxDwell caps every dwell-model duration. Nobody stays within radio
// range of one venue for more than a day, and the cap keeps plan minutes
// far from time.Duration overflow.
const maxDwell = 24 * time.Hour

// FieldError is a validation failure bound to the configuration field that
// caused it. Path names the field in the JSON plan format ("roamFraction",
// "sites[2].radioRange", "runs[0].slot"); Reason is the human-readable
// message. Error() returns Reason alone, so wrapping a FieldError keeps the
// messages the loaders have always produced, while callers that need the
// structured form — the campaign server turns these into 400 responses with
// a machine-readable field path — unwrap it with errors.As.
type FieldError struct {
	// Path locates the offending field in the plan JSON.
	Path string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error; it is the bare reason, not the path.
func (e *FieldError) Error() string { return e.Reason }

// fieldf builds a FieldError in one line.
func fieldf(path, format string, args ...any) *FieldError {
	return &FieldError{Path: path, Reason: fmt.Sprintf(format, args...)}
}

// prefixField re-anchors a nested FieldError under a parent path and message
// prefix ("sites[0]", "site 0"); non-FieldErrors pass through wrapped.
func prefixField(err error, path, label string) error {
	if fe, ok := err.(*FieldError); ok {
		p := path
		if fe.Path != "" {
			p = path + "." + fe.Path
		}
		return &FieldError{Path: p, Reason: label + ": " + fe.Reason}
	}
	return fmt.Errorf("%s: %w", label, err)
}

// Validate checks the venue's semantic invariants — the ones every entry
// point (JSON loaders, campaign specs, the job server) needs before a run
// can be admitted. Errors are FieldErrors named after the venue JSON fields.
func (v Venue) Validate() error {
	if v.Name == "" {
		return fieldf("name", "venue needs a name")
	}
	if v.RadioRange <= 0 {
		return fieldf("radioRange", "radio range %v must be positive", v.RadioRange)
	}
	if v.MovingFraction < 0 || v.MovingFraction > 1 {
		return fieldf("movingFraction", "moving fraction %v outside [0,1]", v.MovingFraction)
	}
	if err := v.Profile.Validate(); err != nil {
		return &FieldError{Path: "arrivalsPerMinute", Reason: err.Error()}
	}
	for _, s := range v.RushSlots {
		if s < 0 || s >= v.Profile.Slots() {
			return fieldf("rushSlots", "rush slot %d outside profile", s)
		}
	}
	if v.MovingFraction > 0 && v.MovingDwell == nil {
		return fieldf("movingDwell", "moving fraction %v needs a moving dwell model", v.MovingFraction)
	}
	if v.MovingFraction < 1 && v.StaticDwell == nil {
		return fieldf("staticDwell", "static share needs a static dwell model")
	}
	if err := validateDwell("staticDwell", v.StaticDwell); err != nil {
		return err
	}
	return validateDwell("movingDwell", v.MovingDwell)
}

// validateDwell bounds the parameters of the dwell models the venue JSON
// format encodes, under their JSON field names; other DwellModel
// implementations are their author's to vouch for.
func validateDwell(path string, m mobility.DwellModel) error {
	bad := func(field, format string, args ...any) error {
		return fieldf(path+"."+field, path+"."+field+" "+format, args...)
	}
	switch d := m.(type) {
	case mobility.StaticDwell:
		if d.Median <= 0 || d.Median > maxDwell {
			return bad("medianMinutes", "%v outside (0, %v]", d.Median, maxDwell)
		}
		if d.Max <= 0 || d.Max > maxDwell {
			return bad("maxMinutes", "%v outside (0, %v]", d.Max, maxDwell)
		}
		if !(d.Sigma >= 0) || math.IsInf(d.Sigma, 1) {
			return bad("sigma", "%v must be finite and non-negative", d.Sigma)
		}
	case mobility.CorridorDwell:
		if !(d.PathLength > 0) || math.IsInf(d.PathLength, 1) {
			return bad("pathLengthMetres", "%v must be positive and finite", d.PathLength)
		}
		if !(d.SpeedMin > 0) {
			return bad("speedMinMps", "%v must be positive", d.SpeedMin)
		}
		if !(d.SpeedMax >= d.SpeedMin) || math.IsInf(d.SpeedMax, 1) {
			return bad("speedMaxMps", "%v must be finite and at least speedMinMps %v", d.SpeedMax, d.SpeedMin)
		}
		if d.PathLength/d.SpeedMin > maxDwell.Seconds() {
			return bad("pathLengthMetres", "%v at %v m/s takes longer than %v", d.PathLength, d.SpeedMin, maxDwell)
		}
	}
	return nil
}

// Validate checks the deployment plan's semantic invariants: site list and
// per-site venues, knowledge plane, roaming and sync parameters. Base is
// deliberately not validated — a plan describes where and how to deploy,
// and the experiment configuration is attached later by the caller. Errors
// are FieldErrors named after the deployment JSON fields.
func (d DeploymentConfig) Validate() error {
	if len(d.Sites) == 0 {
		return fieldf("sites", "deployment needs at least one site")
	}
	if len(d.Sites) > MaxSites {
		return fieldf("sites", "%d sites exceed the %d-site limit", len(d.Sites), MaxSites)
	}
	for i, v := range d.Sites {
		if err := v.Validate(); err != nil {
			return prefixField(err, fmt.Sprintf("sites[%d]", i), fmt.Sprintf("site %d", i))
		}
	}
	if d.Knowledge < Isolated || d.Knowledge > Shared {
		return fieldf("knowledge", "unknown knowledge plane %v", d.Knowledge)
	}
	if d.RoamFraction < 0 || d.RoamFraction > 1 {
		return fieldf("roamFraction", "roam fraction %v outside [0,1]", d.RoamFraction)
	}
	if d.SyncEvery < 0 {
		return fieldf("syncEverySeconds", "sync period %v must not be negative", d.SyncEvery)
	}
	if d.Transit != (mobility.TransitModel{}) {
		if err := d.Transit.Validate(); err != nil {
			return &FieldError{Path: "transit", Reason: err.Error()}
		}
	}
	if d.Partitions < AutoPartitions {
		return fieldf("partitions", "partition count %d invalid: use %d (one per site group), 0, or a positive count",
			d.Partitions, AutoPartitions)
	}
	return nil
}
