package stats

import (
	"math"
	"testing"
	"time"

	"cityhunter/internal/core"
	"cityhunter/internal/ieee80211"
)

func TestTallyAddAndRates(t *testing.T) {
	outcomes := []ClientOutcome{
		{Probed: true, DirectProber: true, Connected: true},
		{Probed: true, DirectProber: true},
		{Probed: true, Connected: true},
		{Probed: true},
		{Probed: true},
		{Probed: false, Connected: true}, // never heard: not counted
	}
	tally := NewTally(outcomes)
	if tally.Total != 5 {
		t.Errorf("Total = %d, want 5", tally.Total)
	}
	if tally.Direct != 2 || tally.Broadcast != 3 {
		t.Errorf("direct/broadcast = %d/%d", tally.Direct, tally.Broadcast)
	}
	if tally.ConnectedDirect != 1 || tally.ConnectedBroadcast != 1 {
		t.Errorf("connected = %d/%d", tally.ConnectedDirect, tally.ConnectedBroadcast)
	}
	if got, want := tally.HitRate(), 2.0/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("h = %v, want %v", got, want)
	}
	if got, want := tally.BroadcastHitRate(), 1.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("h_b = %v, want %v", got, want)
	}
	if tally.String() == "" {
		t.Error("empty String")
	}
}

func TestTallyEmpty(t *testing.T) {
	var tally Tally
	if tally.HitRate() != 0 || tally.BroadcastHitRate() != 0 {
		t.Error("rates on empty tally should be 0")
	}
}

func TestRealTimeBroadcastHitRate(t *testing.T) {
	mins := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	outcomes := []ClientOutcome{
		{Probed: true, Arrived: mins(0), Connected: true},
		{Probed: true, Arrived: mins(1)},
		{Probed: true, Arrived: mins(2), Connected: true},
		{Probed: true, Arrived: mins(3), Connected: true},
		{Probed: true, Arrived: mins(3), DirectProber: true, Connected: true}, // excluded
		{Probed: false, Arrived: mins(3)},                                     // excluded
		{Probed: true, Arrived: mins(100)},                                    // beyond horizon
	}
	points := RealTimeBroadcastHitRate(outcomes, 2*time.Minute, 6*time.Minute)
	if len(points) != 3 {
		t.Fatalf("windows = %d, want 3", len(points))
	}
	if points[0].Broadcast != 2 || points[0].Hit != 1 {
		t.Errorf("window 0 = %+v", points[0])
	}
	if got := points[0].Rate(); got != 0.5 {
		t.Errorf("rate 0 = %v", got)
	}
	if points[1].Broadcast != 2 || points[1].Hit != 2 {
		t.Errorf("window 1 = %+v", points[1])
	}
	if points[2].Broadcast != 0 || points[2].Rate() != 0 {
		t.Errorf("window 2 = %+v", points[2])
	}
}

func TestRealTimeInvalidArgs(t *testing.T) {
	if RealTimeBroadcastHitRate(nil, 0, time.Hour) != nil {
		t.Error("zero window accepted")
	}
	if RealTimeBroadcastHitRate(nil, time.Minute, 0) != nil {
		t.Error("zero horizon accepted")
	}
}

func hit(src core.Source, kind core.BufferKind, direct bool) core.HitRecord {
	m := ieee80211.MAC{0x02, 0, 0, 0, 0, 1}
	if direct {
		m[5] = 2
	}
	return core.HitRecord{MAC: m, SSID: "x", Source: src, Kind: kind}
}

func TestBreakdown(t *testing.T) {
	directMAC := ieee80211.MAC{0x02, 0, 0, 0, 0, 2}
	hits := []core.HitRecord{
		hit(core.SourceWiGLE, core.KindPopularity, false),
		hit(core.SourceNearby, core.KindPopularityGhost, false),
		hit(core.SourceDirectProbe, core.KindFreshness, false),
		hit(core.SourceCarrier, core.KindFreshnessGhost, false),
		hit(core.SourceWiGLE, core.KindMirror, true), // direct prober: excluded
	}
	b := NewBreakdown(hits, func(h core.HitRecord) bool { return h.MAC == directMAC })
	if b.FromWiGLE != 2 {
		t.Errorf("FromWiGLE = %d, want 2 (wigle + nearby)", b.FromWiGLE)
	}
	if b.FromDirect != 1 || b.FromCarrier != 1 {
		t.Errorf("direct/carrier = %d/%d", b.FromDirect, b.FromCarrier)
	}
	if b.FromPopularity != 2 || b.FromFreshness != 2 {
		t.Errorf("pop/fresh = %d/%d", b.FromPopularity, b.FromFreshness)
	}
	if got := b.SourceRatio(); got != 2 {
		t.Errorf("SourceRatio = %v", got)
	}
	if got := b.BufferRatio(); got != 1 {
		t.Errorf("BufferRatio = %v", got)
	}
}

func TestBreakdownNilPredicate(t *testing.T) {
	hits := []core.HitRecord{hit(core.SourceWiGLE, core.KindPopularity, true)}
	b := NewBreakdown(hits, nil)
	if b.FromWiGLE != 1 {
		t.Error("nil predicate should include every hit")
	}
}

func TestBreakdownInfiniteRatios(t *testing.T) {
	b := NewBreakdown([]core.HitRecord{hit(core.SourceWiGLE, core.KindPopularity, false)}, nil)
	if !math.IsInf(b.SourceRatio(), 1) {
		t.Error("SourceRatio with zero direct should be +Inf")
	}
	if !math.IsInf(b.BufferRatio(), 1) {
		t.Error("BufferRatio with zero freshness should be +Inf")
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 0 {
		t.Error("empty trials should give [0,0]")
	}
	lo, hi = WilsonInterval(0, 100)
	if lo != 0 || hi < 0.01 || hi > 0.08 {
		t.Errorf("0/100 interval = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 100)
	if lo > 0.5 || hi < 0.5 {
		t.Errorf("50/100 interval [%v, %v] excludes the point estimate", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Errorf("50/100 interval [%v, %v] implausibly wide", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100)
	if hi < 1-1e-9 || lo < 0.9 {
		t.Errorf("100/100 interval = [%v, %v]", lo, hi)
	}
	// Interval shrinks with n.
	_, hiSmall := WilsonInterval(5, 10)
	loSmall, _ := WilsonInterval(5, 10)
	loBig, hiBig := WilsonInterval(500, 1000)
	if hiBig-loBig >= hiSmall-loSmall {
		t.Error("interval did not shrink with sample size")
	}
}

func TestSummarizeRates(t *testing.T) {
	if s := SummarizeRates(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := SummarizeRates([]float64{0.1, 0.2, 0.3})
	if math.Abs(s.Mean-0.2) > 1e-12 || s.Min != 0.1 || s.Max != 0.3 || s.N != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.SD < 0.09 || s.SD > 0.11 {
		t.Errorf("SD = %v, want ≈0.1", s.SD)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	one := SummarizeRates([]float64{0.5})
	if one.SD != 0 {
		t.Errorf("single-sample SD = %v", one.SD)
	}
}
