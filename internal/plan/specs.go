package plan

import (
	"fmt"
	"time"

	"cityhunter/internal/campaign"
	"cityhunter/internal/scenario"
)

// Params are the run parameters a venue or deployment plan leaves to the
// caller. A campaign plan carries them per run and takes only Seed.
type Params struct {
	// Seed is the world seed. A venue or deployment plan runs at it, the
	// way a single World.Run does; campaign specs derive their own.
	Seed int64
	// Attack names the strategy (karma|mana|prelim|cityhunter|known-beacons).
	Attack string
	// Slot is the hour slot.
	Slot int
	// Minutes is the run length.
	Minutes float64
}

// RunSpecs turns a plan into the campaign spec list that runs it — the one
// path from plan to result that cityhunter-sim and the job server share, so
// the same plan and parameters give the same result through either. A
// campaign plan's specs come back exactly as decoded. A venue or deployment
// plan becomes one spec at prm's attack, slot and length, seeded with
// prm.Seed. Every error is a scenario.FieldError naming the parameter.
func RunSpecs(p Plan, prm Params) ([]campaign.Spec, error) {
	if p.Kind == KindCampaign {
		if prm.Attack != "" || prm.Slot != 0 || prm.Minutes != 0 {
			return nil, &scenario.FieldError{Path: "attack",
				Reason: "campaign plans carry attack/slot/minutes per run; drop them from the parameters"}
		}
		return p.Specs, nil
	}
	kind, ok := campaign.AttackByName(prm.Attack)
	if !ok {
		return nil, &scenario.FieldError{Path: "attack",
			Reason: fmt.Sprintf("unknown attack %q (want karma|mana|prelim|cityhunter|known-beacons)", prm.Attack)}
	}
	if prm.Minutes <= 0 {
		return nil, &scenario.FieldError{Path: "minutes",
			Reason: fmt.Sprintf("minutes %v must be positive", prm.Minutes)}
	}
	if prm.Seed == 0 {
		// Spec.Seed 0 would derive a campaign seed instead of running at
		// the world seed.
		return nil, &scenario.FieldError{Path: "seed",
			Reason: "seed 0 cannot seed a venue or deployment run (a spec seed of 0 derives a per-run seed); use any nonzero seed"}
	}
	spec := campaign.Spec{
		Attack:   kind,
		Slot:     prm.Slot,
		Duration: time.Duration(prm.Minutes * float64(time.Minute)),
		Seed:     prm.Seed,
	}
	switch p.Kind {
	case KindVenue:
		spec.Name = p.Venue.Name
		spec.Venue = *p.Venue
	case KindDeployment:
		spec.Name = fmt.Sprintf("deployment (%d sites)", len(p.Deployment.Sites))
		spec.Deployment = p.Deployment
	default:
		return nil, fmt.Errorf("plan: unknown kind %q (want venue|deployment|campaign)", p.Kind)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return []campaign.Spec{spec}, nil
}
