package scenario

import (
	"fmt"
	"math/rand"

	"cityhunter/internal/client"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/sim"
)

// runEnv is the world-build layer of a deployment's site group: the
// virtual-time engine, a radio medium, the run RNG, the observability
// runtime, and the PNL model. A single-venue run is a one-site deployment
// and so has exactly one. Everything above this layer — sites, attackers,
// populations — plugs into the same handles.
type runEnv struct {
	cfg    Config
	rng    *rand.Rand
	engine *sim.Engine
	medium *sim.Medium
	rt     *obs.Runtime
	model  *pnl.Model

	// labelSites makes per-site instrumentation stamp a "site" label on
	// its metric series. It is set exactly when the deployment has more
	// than one site, so a live monitor can tell co-resident attackers (and
	// gauges written from several groups) apart; one site needs no label,
	// which keeps single-venue metric dumps byte-stable.
	labelSites bool
}

// siteLabels returns the label pairs for one site's metric series — empty
// unless this environment labels sites.
func (env *runEnv) siteLabels(venueName string) []string {
	if !env.labelSites {
		return nil
	}
	return []string{"site", venueName}
}

// siteMetricLabel is the scalar form of siteLabels for components that take
// one optional site name.
func siteMetricLabel(env *runEnv, venueName string) string {
	if !env.labelSites {
		return ""
	}
	return venueName
}

// normalized validates the population and radio knobs and fills defaults.
// The structural checks (city/heat map presence, venues, slot bounds,
// duration) are runDeployment's.
func (cfg Config) normalized() (Config, error) {
	if cfg.DirectProberFraction < 0 || cfg.DirectProberFraction > 1 {
		return cfg, fmt.Errorf("scenario: direct prober fraction %v outside [0,1]", cfg.DirectProberFraction)
	}
	if cfg.PreconnectedFraction < 0 || cfg.PreconnectedFraction > 1 {
		return cfg, fmt.Errorf("scenario: preconnected fraction %v outside [0,1]", cfg.PreconnectedFraction)
	}
	if cfg.CanaryFraction < 0 || cfg.CanaryFraction > 1 {
		return cfg, fmt.Errorf("scenario: canary fraction %v outside [0,1]", cfg.CanaryFraction)
	}
	if cfg.RandomizeMACFraction < 0 || cfg.RandomizeMACFraction > 1 {
		return cfg, fmt.Errorf("scenario: randomize-MAC fraction %v outside [0,1]", cfg.RandomizeMACFraction)
	}
	if cfg.FrameLoss < 0 || cfg.FrameLoss >= 1 {
		return cfg, fmt.Errorf("scenario: frame loss %v outside [0,1)", cfg.FrameLoss)
	}
	if err := cfg.validateLinking(); err != nil {
		return cfg, err
	}
	if cfg.ScanInterval <= 0 {
		cfg.ScanInterval = client.DefaultScanInterval
	}
	if cfg.ArrivalScale <= 0 {
		cfg.ArrivalScale = 1
	}
	return cfg, nil
}

// pnlModel returns the configured PNL model, building the default one when
// none is set.
func (cfg Config) pnlModel() (*pnl.Model, error) {
	if cfg.PNL != nil {
		return cfg.PNL, nil
	}
	model, err := pnl.NewModel(cfg.City.DB, cfg.HeatMap, pnl.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("scenario: build pnl model: %w", err)
	}
	return model, nil
}

// newEnv builds one environment on engine: a medium of the given delivery
// radius, a run RNG seeded seed, frame loss seeded seed+5, and — when any
// observability is on — a runtime feeding reg with its own journal and
// trace. A deployment builds one per site group, all on a shared registry.
// Construction consumes no randomness beyond creating the seeded
// generator, so the layers above it draw in a stable order.
func newEnv(cfg Config, engine *sim.Engine, radioRange float64, seed int64, reg *obs.Registry, model *pnl.Model) *runEnv {
	medium := sim.NewMedium(engine, radioRange)
	if cfg.FrameLoss > 0 {
		medium.SetFrameLoss(cfg.FrameLoss, seed+5)
	}

	// Observability: one runtime feeds every instrumented layer. It never
	// consumes run randomness, so enabling it cannot perturb a seed.
	var rt *obs.Runtime
	if reg != nil || cfg.FlightRecorderCap > 0 || cfg.SpanTrace {
		rt = &obs.Runtime{Metrics: reg}
		if cfg.FlightRecorderCap > 0 {
			rt.Journal = obs.NewJournal(cfg.FlightRecorderCap)
			// Surface ring overwrites on the live registry, not only in
			// Journal.Dropped after the run.
			rt.Journal.Overflow = reg.Counter("obs_journal_overwritten_events")
		}
		if cfg.SpanTrace {
			rt.Trace = obs.NewTrace()
		}
		medium.Instrument(rt)
	}
	return &runEnv{cfg: cfg, rng: rand.New(rand.NewSource(seed)), engine: engine, medium: medium, rt: rt, model: model}
}
