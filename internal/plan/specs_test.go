package plan

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"cityhunter/internal/scenario"
)

// TestRunSpecs: a venue or deployment plan becomes one spec at the given
// attack, slot and length, seeded with the world seed; a campaign plan's
// specs come back as decoded.
func TestRunSpecs(t *testing.T) {
	plans := fixturePlans()
	prm := Params{Seed: 7, Attack: "mana", Slot: 2, Minutes: 1.5}
	for _, kind := range []string{"venue", "deployment"} {
		specs, err := RunSpecs(plans[kind], prm)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		s := specs[0]
		if len(specs) != 1 || s.Seed != 7 || s.Attack != scenario.MANA || s.Slot != 2 || s.Duration != 90*time.Second {
			t.Errorf("%s: specs %+v", kind, specs)
		}
	}
	specs, err := RunSpecs(plans["campaign"], Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, fixtureSpecs()) {
		t.Errorf("campaign specs changed: %+v", specs)
	}
}

// TestRunSpecsFieldErrors: every rejected parameter names its field.
func TestRunSpecsFieldErrors(t *testing.T) {
	plans := fixturePlans()
	for _, tc := range []struct {
		plan  string
		prm   Params
		field string
	}{
		{"campaign", Params{Seed: 1, Slot: 3}, "attack"},
		{"venue", Params{Seed: 1, Attack: "wep-crack", Minutes: 1}, "attack"},
		{"venue", Params{Seed: 1, Attack: "karma"}, "minutes"},
		{"deployment", Params{Attack: "karma", Minutes: 1}, "seed"},
		{"venue", Params{Seed: 1, Attack: "karma", Minutes: 1, Slot: 12}, "slot"},
		{"deployment", Params{Seed: 1, Attack: "karma", Minutes: 1, Slot: -1}, "slot"},
	} {
		_, err := RunSpecs(plans[tc.plan], tc.prm)
		var fe *scenario.FieldError
		if !errors.As(err, &fe) || fe.Path != tc.field {
			t.Errorf("%s plan, %+v: err = %v, want a %q field error", tc.plan, tc.prm, err, tc.field)
		}
	}
}
