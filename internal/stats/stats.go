// Package stats aggregates experiment observations into the quantities the
// paper reports: hit rates h and h_b, the windowed real-time broadcast hit
// rate h_b^r (Fig. 1b), histograms of SSIDs tried per client (Fig. 2), and
// the source/buffer breakdowns of successful SSIDs (Fig. 6).
package stats

import (
	"fmt"
	"math"
	"time"

	"cityhunter/internal/core"
)

// ClientOutcome is one phone's summary after a run.
type ClientOutcome struct {
	// Arrived and Departed bound the phone's presence (Departed may be
	// the run horizon for phones still present at the end).
	Arrived  time.Duration
	Departed time.Duration
	// DirectProber marks phones that disclosed PNL entries.
	DirectProber bool
	// Probed reports whether the attacker ever heard the phone.
	Probed bool
	// Connected reports a successful capture and when.
	Connected   bool
	ConnectedAt time.Duration
	// SSIDsSent counts the distinct SSIDs the attacker tried on it.
	SSIDsSent int
	// MACsUsed counts the source MACs the phone appeared under — 1 for a
	// stable-MAC phone, more under MAC randomization. Far-field outcomes
	// assembled from legacy snapshots may leave it 0 (unknown).
	MACsUsed int
}

// Tally is the paper's table row: client counts and hit rates.
type Tally struct {
	Total              int
	Direct             int
	Broadcast          int
	ConnectedDirect    int
	ConnectedBroadcast int
}

// Add accumulates one outcome. Phones never heard by the attacker are not
// counted (the paper counts phones whose probes were received).
func (t *Tally) Add(o ClientOutcome) {
	if !o.Probed {
		return
	}
	t.Total++
	if o.DirectProber {
		t.Direct++
		if o.Connected {
			t.ConnectedDirect++
		}
		return
	}
	t.Broadcast++
	if o.Connected {
		t.ConnectedBroadcast++
	}
}

// HitRate returns h = connected / total.
func (t Tally) HitRate() float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.ConnectedDirect+t.ConnectedBroadcast) / float64(t.Total)
}

// BroadcastHitRate returns h_b = broadcast connected / broadcast clients.
func (t Tally) BroadcastHitRate() float64 {
	if t.Broadcast == 0 {
		return 0
	}
	return float64(t.ConnectedBroadcast) / float64(t.Broadcast)
}

// String renders the tally like a paper table row.
func (t Tally) String() string {
	return fmt.Sprintf("clients=%d (direct %d / broadcast %d) connected=%d(direct);%d(broadcast) h=%.1f%% h_b=%.1f%%",
		t.Total, t.Direct, t.Broadcast, t.ConnectedDirect, t.ConnectedBroadcast,
		100*t.HitRate(), 100*t.BroadcastHitRate())
}

// NewTally aggregates a batch of outcomes.
func NewTally(outcomes []ClientOutcome) Tally {
	var t Tally
	for _, o := range outcomes {
		t.Add(o)
	}
	return t
}

// WindowPoint is one real-time window of Fig. 1b: the broadcast clients
// that arrived in the window and how many of them were eventually hit.
type WindowPoint struct {
	Start     time.Duration
	End       time.Duration
	Broadcast int
	Hit       int
}

// Rate returns the window's h_b^r.
func (w WindowPoint) Rate() float64 {
	if w.Broadcast == 0 {
		return 0
	}
	return float64(w.Hit) / float64(w.Broadcast)
}

// RealTimeBroadcastHitRate slices the run into fixed windows and computes
// h_b^r per window: among the broadcast-probing clients first heard in the
// window, the fraction eventually captured.
func RealTimeBroadcastHitRate(outcomes []ClientOutcome, window, horizon time.Duration) []WindowPoint {
	if window <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + window - 1) / window)
	points := make([]WindowPoint, n)
	for i := range points {
		points[i].Start = time.Duration(i) * window
		points[i].End = points[i].Start + window
	}
	for _, o := range outcomes {
		if !o.Probed || o.DirectProber {
			continue
		}
		i := int(o.Arrived / window)
		if i < 0 || i >= n {
			continue
		}
		points[i].Broadcast++
		if o.Connected {
			points[i].Hit++
		}
	}
	return points
}

// Breakdown classifies the SSIDs that hit broadcast-probing clients, the
// two groupings of Fig. 6.
type Breakdown struct {
	// Source grouping: entries learnt from WiGLE (city-wide + nearby)
	// versus harvested from directed probes versus carrier seeding.
	FromWiGLE   int
	FromDirect  int
	FromCarrier int
	// Buffer grouping: served from the popularity side (buffer + ghost)
	// versus the freshness side.
	FromPopularity int
	FromFreshness  int
}

// NewBreakdown classifies hit records. Only hits on broadcast-probing
// clients matter for Fig. 6, so callers pass a predicate saying whether the
// victim was a direct prober.
func NewBreakdown(hits []core.HitRecord, isDirectProber func(core.HitRecord) bool) Breakdown {
	var b Breakdown
	for _, h := range hits {
		if isDirectProber != nil && isDirectProber(h) {
			continue
		}
		switch {
		case h.Source.FromWiGLE():
			b.FromWiGLE++
		case h.Source == core.SourceCarrier:
			b.FromCarrier++
		default:
			b.FromDirect++
		}
		switch {
		case h.Kind.FromPopularity():
			b.FromPopularity++
		case h.Kind.FromFreshness():
			b.FromFreshness++
		}
	}
	return b
}

// SourceRatio returns FromWiGLE : FromDirect as a float (Inf when no
// direct-sourced hits).
func (b Breakdown) SourceRatio() float64 {
	if b.FromDirect == 0 {
		return math.Inf(1)
	}
	return float64(b.FromWiGLE) / float64(b.FromDirect)
}

// BufferRatio returns FromPopularity : FromFreshness as a float (Inf when
// no freshness hits).
func (b Breakdown) BufferRatio() float64 {
	if b.FromFreshness == 0 {
		return math.Inf(1)
	}
	return float64(b.FromPopularity) / float64(b.FromFreshness)
}

// WilsonInterval returns the 95 % Wilson score interval for k successes in
// n trials — the right interval for the small hit counts these experiments
// produce (a normal approximation misbehaves near 0).
func WilsonInterval(k, n int) (lo, hi float64) {
	if n <= 0 {
		return 0, 0
	}
	const z = 1.96
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// RateSummary aggregates a rate across replicated runs.
type RateSummary struct {
	N    int
	Mean float64
	Min  float64
	Max  float64
	// SD is the sample standard deviation (0 when N < 2).
	SD float64
}

// SummarizeRates computes the replication summary of a rate series.
func SummarizeRates(rates []float64) RateSummary {
	s := RateSummary{N: len(rates)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = rates[0], rates[0]
	sum := 0.0
	for _, r := range rates {
		sum += r
		s.Min = math.Min(s.Min, r)
		s.Max = math.Max(s.Max, r)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, r := range rates {
			d := r - s.Mean
			ss += d * d
		}
		s.SD = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// String renders the summary as "mean (min–max, n=N)".
func (s RateSummary) String() string {
	return fmt.Sprintf("%.1f%% (%.1f%%-%.1f%%, n=%d)", 100*s.Mean, 100*s.Min, 100*s.Max, s.N)
}
