package scenario

import (
	"context"
	"time"

	"cityhunter/internal/attack"
	"cityhunter/internal/citygen"
	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/detect"
	"cityhunter/internal/heatmap"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
	"cityhunter/internal/obs"
	"cityhunter/internal/pnl"
	"cityhunter/internal/stats"
	"cityhunter/internal/trace"
	"cityhunter/internal/wigle"
)

// AttackKind selects which attacker a run deploys.
type AttackKind int

// Attack kinds.
const (
	// KARMA answers directed probes only.
	KARMA AttackKind = iota + 1
	// MANA harvests and replays directed-probe SSIDs.
	MANA
	// CityHunterPreliminary is the §III design (rotation + WiGLE).
	CityHunterPreliminary
	// CityHunter is the full §IV design.
	CityHunter
	// KnownBeacons is the wifiphisher-style related attack the paper's
	// family belongs to: instead of answering probes, the attacker
	// broadcasts forged beacons cycling through the WiGLE-derived lure
	// list, hoping passively scanning phones recognise one. It tries
	// only the one or two SSIDs whose beacons land inside each phone's
	// scan window — no per-client rotation is possible.
	KnownBeacons
)

// String implements fmt.Stringer.
func (k AttackKind) String() string {
	switch k {
	case KARMA:
		return "KARMA"
	case MANA:
		return "MANA"
	case CityHunterPreliminary:
		return "City-Hunter (preliminary)"
	case CityHunter:
		return "City-Hunter"
	case KnownBeacons:
		return "Known Beacons"
	default:
		return "unknown attack"
	}
}

// Config assembles one experiment.
type Config struct {
	// City is the synthetic environment; HeatMap its photo heat map.
	City    *citygen.City
	HeatMap *heatmap.Map
	// PNL generates phone preferred-network lists; nil builds one with
	// pnl.DefaultConfig.
	PNL *pnl.Model
	// Venue is the deployment site.
	Venue Venue
	// Attack selects the strategy.
	Attack AttackKind
	// CoreConfig overrides the City-Hunter engine configuration; nil
	// uses core.DefaultConfig for the mode implied by Attack.
	CoreConfig *core.Config
	// WiGLE is the attacker's offline database. nil uses City.DB — i.e.
	// perfect coverage. Pass a wigle.DB.SampleCrowdsourced result to
	// model the real service's gaps.
	WiGLE *wigle.DB
	// DirectProberFraction is the share of unsafe phones (paper ≈15 %).
	DirectProberFraction float64
	// ScanInterval is the mean phone scan period.
	ScanInterval time.Duration
	// PreconnectedFraction of phones arrive already associated to the
	// venue's legitimate AP and stay silent until deauthenticated.
	PreconnectedFraction float64
	// EnableDeauth arms the §V-B deauthentication extension.
	EnableDeauth bool
	// CautiousMirror makes the attacker mirror only already-known SSIDs,
	// its counter-move against canary probing.
	CautiousMirror bool
	// CanaryFraction is the share of phones running the canary-probe
	// evil-twin detector (see internal/detect); they unmask and ignore
	// the attacker.
	CanaryFraction float64
	// RandomizeMACFraction is the share of phones rotating their probe
	// MAC every scan (the modern OS default while unassociated).
	RandomizeMACFraction float64
	// Randomization names the rotation policy of the randomizing share;
	// those phones also emit their chipset IE fingerprint (one of 24),
	// the observable the linker exploits. client.RandomizeNone (the zero
	// value) leaves the share rotating per scan without a fingerprint.
	Randomization client.RandomizationPolicy
	// RandomizeEvery is the rotation period under
	// client.RandomizeTimed; 0 selects client.DefaultRandomizeEvery.
	RandomizeEvery time.Duration
	// Linker selects the attacker's MAC de-anonymisation strategy; the
	// zero value (LinkerMAC) is the historical one-MAC-one-device
	// mapping. Ignored when CoreConfig supplies its own Linker.
	Linker LinkerKind
	// Sentinel attaches a passive many-SSIDs-one-BSSID detector at the
	// venue; Result.Sentinel exposes its findings.
	Sentinel bool
	// Trace attaches a promiscuous frame recorder at the venue;
	// Result.Trace exposes the capture. Long runs capture millions of
	// frames — the recorder is bounded to TraceMaxEntries.
	Trace bool
	// TraceMaxEntries caps the frame capture; 0 means the 2^20 default.
	TraceMaxEntries int
	// FrameLoss drops each frame delivery independently with this
	// probability — fading, collisions and interference the disk model
	// otherwise ignores. 0 (the default) is the calibrated setting.
	FrameLoss float64
	// Metrics instruments every layer (sim engine, medium, attacker,
	// City-Hunter engine, runner) with the observability registry;
	// Result.Metrics holds its deterministic snapshot.
	Metrics bool
	// FlightRecorderCap, when positive, arms the run flight recorder: a
	// ring-bounded journal of structured events (adaptations, ghost hits,
	// associations, deauth sweeps, frame losses) kept in Result.Journal.
	FlightRecorderCap int
	// SpanTrace collects Chrome/Perfetto trace spans — client lifecycles,
	// scan cycles, attacker reply batches — into Result.Spans.
	SpanTrace bool
	// ArrivalScale multiplies the venue's arrival rates (a speed knob
	// for tests; 0 means 1).
	ArrivalScale float64
	// SampleEvery sets the engine state-sampling period (0 disables).
	SampleEvery time.Duration
	// Publisher, when set, streams live telemetry into a monitor: the run
	// registers its metrics registry, which the monitor reads when it is
	// scraped, and forwards structured run events. It forces the metrics
	// registry on. Publishing is read-only and consumes no run randomness,
	// so seeded results are unchanged.
	Publisher obs.Publisher
	// PublishEvery is the virtual-time cadence at which buffered run
	// events are forwarded to the Publisher; 0 selects
	// DefaultPublishEvery.
	PublishEvery time.Duration
	// RunLabel names the run on the monitor; empty derives
	// "venue/attack/slotN".
	RunLabel string
	// RunLabels adds extra identity labels to every metric the run
	// publishes (the job server scopes runs to a job id this way). The
	// built-in attack/seed labels win on conflict.
	RunLabels map[string]string
	// Seed drives all randomness in the run.
	Seed int64
}

// Result is everything a run produces.
type Result struct {
	// Venue and Slot identify the experiment; SlotLabel is "8am-9am"
	// style.
	Venue     string
	Slot      int
	SlotLabel string
	Duration  time.Duration
	// Attack names the strategy.
	Attack string
	// Outcomes holds one record per phone that entered the area.
	Outcomes []stats.ClientOutcome
	// Tally aggregates them the way the paper's tables do.
	Tally stats.Tally
	// Report is the attacker's own accounting (heard probes etc.).
	Report attack.Report
	// Victims lists captures in order.
	Victims []attack.Victim
	// Engine exposes the City-Hunter internals for breakdowns; nil for
	// KARMA/MANA runs.
	Engine *core.Engine
	// Mana exposes the MANA database for Fig. 1; nil otherwise.
	Mana *attack.Mana
	// HitsByVictimDirect maps victims' MACs to their direct-prober flag,
	// for Fig. 6 filtering.
	HitsByVictimDirect map[ieee80211.MAC]bool
	// Sentinel is the passive detector, when Config.Sentinel was set.
	Sentinel *detect.Sentinel
	// Trace is the frame capture, when Config.Trace was set; a nonzero
	// Trace.Dropped means it is truncated, not complete.
	Trace *trace.Monitor
	// CanaryDetections sums the clients' canary unmaskings.
	CanaryDetections int
	// Metrics is the deterministic metrics snapshot, when Config.Metrics
	// was set.
	Metrics obs.Snapshot
	// Journal is the run flight recorder, when Config.FlightRecorderCap
	// was positive.
	Journal *obs.Journal
	// Spans is the Perfetto span trace, when Config.SpanTrace was set.
	Spans *obs.Trace
	// Links grades the engine's linker against the population's
	// ground-truth device identities: how precisely the attacker
	// re-linked rotated MACs back to devices. Nil for KARMA/MANA runs
	// (no engine, no track database).
	Links *linker.Report
}

// Breakdown returns the Fig. 6 classification of the SSIDs that hit
// broadcast-probing clients. It is only meaningful for City-Hunter runs.
func (r *Result) Breakdown() stats.Breakdown {
	if r.Engine == nil {
		return stats.Breakdown{}
	}
	return stats.NewBreakdown(r.Engine.Hits(), func(h core.HitRecord) bool {
		return r.HitsByVictimDirect[h.MAC]
	})
}

// RunContext executes one deployment: the venue's slot-th hour-long test
// (the paper runs 8am–8pm, one test per hour slot, database re-initialised
// each time). duration may be shorter than an hour for quick runs. A
// single-venue run is a one-site deployment of cfg.Venue: it runs on
// RunDeploymentContext's engine, validation and telemetry and returns that
// site's Result. The context is polled inside the simulation event loop,
// so a cancel stops a mid-flight run promptly (within a few hundred
// events).
//
// Cancellation semantics: when ctx is cancelled mid-run, RunContext still
// returns a non-nil *Result holding partial accounting — every outcome,
// tally, victim, report and observability attachment reflects the virtual
// time reached when the run stopped (Result.Duration is that partial
// virtual time, not the requested one) — together with a non-nil error
// wrapping ctx.Err(). Configuration errors detected before the simulation
// starts, the venue's Validate among them, return a nil Result.
func RunContext(ctx context.Context, cfg Config, slot int, duration time.Duration) (*Result, error) {
	dres, _, err := runDeployment(ctx, DeploymentConfig{Base: cfg, Sites: []Venue{cfg.Venue}}, slot, duration)
	if dres == nil {
		return nil, err
	}
	return dres.Sites[0], err
}
