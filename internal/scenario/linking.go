package scenario

import (
	"fmt"

	"cityhunter/internal/client"
	"cityhunter/internal/core"
	"cityhunter/internal/ieee80211"
	"cityhunter/internal/linker"
)

// LinkerKind selects the attacker's MAC de-anonymisation strategy: how the
// hunter database groups observed source MACs into device tracks. The zero
// value is the historical one-MAC-one-device identity mapping.
type LinkerKind int

// Linker kinds.
const (
	// LinkerMAC is the identity mapping: every distinct MAC is its own
	// device. Byte-identical to the pre-linker engine.
	LinkerMAC LinkerKind = iota
	// LinkerSeq links by 802.11 sequence-counter continuity alone.
	LinkerSeq
	// LinkerFingerprint links by the probe-request IE fingerprint alone.
	LinkerFingerprint
	// LinkerPNL links by directed-probe PNL order alone.
	LinkerPNL
	// LinkerComposite combines sequence continuity, IE fingerprints and
	// PNL order into one score.
	LinkerComposite
)

// String implements fmt.Stringer.
func (k LinkerKind) String() string {
	switch k {
	case LinkerMAC:
		return "mac"
	case LinkerSeq:
		return "seq"
	case LinkerFingerprint:
		return "fingerprint"
	case LinkerPNL:
		return "pnl"
	case LinkerComposite:
		return "composite"
	default:
		return fmt.Sprintf("linker(%d)", int(k))
	}
}

// LinkerByName maps the stable wire names (campaign plans, CLI flags) to
// kinds. Keys match LinkerKind.String.
var LinkerByName = map[string]LinkerKind{
	"mac":         LinkerMAC,
	"seq":         LinkerSeq,
	"fingerprint": LinkerFingerprint,
	"pnl":         LinkerPNL,
	"composite":   LinkerComposite,
}

// RandomizationByName maps the stable wire names to client randomization
// policies. Keys match client.RandomizationPolicy.String.
var RandomizationByName = map[string]client.RandomizationPolicy{
	"none":      client.RandomizeNone,
	"per-scan":  client.RandomizePerScan,
	"per-burst": client.RandomizePerBurst,
	"timed":     client.RandomizeTimed,
}

// newLinker builds the linker a kind names. LinkerMAC returns nil so the
// core engine takes its own identity default, keeping the nil-Linker
// configuration path byte-identical.
func newLinker(kind LinkerKind) (linker.Linker, error) {
	switch kind {
	case LinkerMAC:
		return nil, nil
	case LinkerSeq:
		return linker.NewComposite(0.3, linker.NewSeqContinuity()), nil
	case LinkerFingerprint:
		return linker.NewComposite(0.25, &linker.FingerprintMatch{}), nil
	case LinkerPNL:
		return linker.NewComposite(0.35, &linker.PNLOrder{}), nil
	case LinkerComposite:
		// Above any single weak signal (fingerprint 0.3, PNL head 0.4,
		// their 0.7 sum): merging needs sequence continuity, alone or
		// corroborated.
		return linker.NewComposite(0.75,
			linker.NewSeqContinuity(), &linker.FingerprintMatch{}, &linker.PNLOrder{}), nil
	default:
		return nil, fmt.Errorf("scenario: unknown linker kind %d", int(kind))
	}
}

// defaultFingerprintModels is how many distinct IE/PNL-order chipset
// fingerprints the phone population draws from — deliberately small so
// fingerprints collide across phones the way real chipset fingerprints do.
const defaultFingerprintModels = 24

// fingerprintFor derives a phone's stable IE fingerprint from its true
// identity MAC — a hash, not an RNG draw, so enabling fingerprints
// perturbs no randomness stream.
func fingerprintFor(m ieee80211.MAC) uint32 {
	h := uint32(2166136261) // FNV-1a
	for _, b := range m {
		h ^= uint32(b)
		h *= 16777619
	}
	return 1 + h%defaultFingerprintModels
}

// deviceMACs is one device's ground truth: its true identity and every
// MAC it appeared under.
type deviceMACs struct {
	identity ieee80211.MAC
	used     []ieee80211.MAC
}

// linkReport grades an engine's linker against the population's ground
// truth: which observed MACs belonged to the same physical phone. Returns
// nil when there is no engine to grade.
func linkReport(eng *core.Engine, devices []deviceMACs) *linker.Report {
	if eng == nil {
		return nil
	}
	lk := eng.Linker()
	truth := make(map[ieee80211.MAC]ieee80211.MAC)
	for _, d := range devices {
		for _, m := range d.used {
			truth[m] = d.identity
		}
	}
	r := linker.NewReport(lk.Name(), lk.Assignments(), lk.Links(), truth)
	return &r
}

// snapshotMACs is the used-MAC list of a suspended phone; legacy
// snapshots without one fall back to the identity MAC.
func snapshotMACs(snap *client.Snapshot) []ieee80211.MAC {
	if len(snap.UsedMACs) > 0 {
		return snap.UsedMACs
	}
	return []ieee80211.MAC{snap.Config.MAC}
}

// memberDevices collects the ground-truth MAC sets of a venue population.
func memberDevices(members []*member) []deviceMACs {
	out := make([]deviceMACs, 0, len(members))
	for _, m := range members {
		out = append(out, deviceMACs{
			identity: m.c.TrueAddr(),
			used:     m.c.UsedMACs(),
		})
	}
	return out
}

// validateLinking checks the randomization and linker knobs during
// Config.normalized.
func (cfg Config) validateLinking() error {
	switch cfg.Randomization {
	case client.RandomizeNone, client.RandomizePerScan, client.RandomizePerBurst, client.RandomizeTimed:
	default:
		return fmt.Errorf("scenario: unknown randomization policy %d", int(cfg.Randomization))
	}
	if cfg.RandomizeEvery < 0 {
		return fmt.Errorf("scenario: negative randomize-every %v", cfg.RandomizeEvery)
	}
	if _, err := newLinker(cfg.Linker); err != nil {
		return err
	}
	return nil
}
