package trace

import (
	"math"
	"sort"
	"time"

	"cityhunter/internal/ieee80211"
)

// Analysis distils a capture into the measurements the paper's §III builds
// on: how many distinct devices probed, how talkative they are (probe
// inter-arrival times), how SSID-diverse each responder is, and the
// per-subtype frame mix.
type Analysis struct {
	// Frames is the total frame count analysed.
	Frames int
	// BySubtype counts frames per subtype.
	BySubtype map[ieee80211.FrameSubtype]int
	// UniqueSources is the number of distinct transmitter MACs.
	UniqueSources int
	// Probers is the number of distinct MACs that sent probe requests;
	// DirectProbers the subset that directed at least one probe.
	Probers       int
	DirectProbers int
	// ProbeIntervalP50 and P90 are percentiles of the per-device probe
	// inter-arrival time (zero when fewer than two probes per device
	// exist anywhere).
	ProbeIntervalP50 time.Duration
	ProbeIntervalP90 time.Duration
	// SSIDsPerResponder maps each responding/beaconing BSSID to the
	// number of distinct SSIDs it advertised — the sentinel's signal; an
	// evil twin dwarfs every honest AP here.
	SSIDsPerResponder map[ieee80211.MAC]int
}

// Analyze runs over a capture in one pass.
func Analyze(entries []Entry) Analysis {
	a := Analysis{
		Frames:            len(entries),
		BySubtype:         make(map[ieee80211.FrameSubtype]int),
		SSIDsPerResponder: make(map[ieee80211.MAC]int),
	}
	sources := make(map[ieee80211.MAC]bool)
	probers := make(map[ieee80211.MAC]bool)
	direct := make(map[ieee80211.MAC]bool)
	lastProbe := make(map[ieee80211.MAC]time.Duration)
	respSSIDs := make(map[ieee80211.MAC]map[string]bool)
	var intervals []time.Duration

	for _, e := range entries {
		a.BySubtype[e.Subtype]++
		sources[e.SA] = true
		switch e.Subtype {
		case ieee80211.SubtypeProbeRequest:
			probers[e.SA] = true
			if e.SSID != "" {
				direct[e.SA] = true
			}
			if prev, ok := lastProbe[e.SA]; ok && e.At > prev {
				intervals = append(intervals, e.At-prev)
			}
			lastProbe[e.SA] = e.At
		case ieee80211.SubtypeProbeResponse, ieee80211.SubtypeBeacon:
			if e.SSID == "" {
				break
			}
			set, ok := respSSIDs[e.BSSID]
			if !ok {
				set = make(map[string]bool)
				respSSIDs[e.BSSID] = set
			}
			set[e.SSID] = true
		}
	}
	a.UniqueSources = len(sources)
	a.Probers = len(probers)
	a.DirectProbers = len(direct)
	for bssid, set := range respSSIDs {
		a.SSIDsPerResponder[bssid] = len(set)
	}
	if len(intervals) > 0 {
		sort.Slice(intervals, func(i, j int) bool { return intervals[i] < intervals[j] })
		a.ProbeIntervalP50 = percentile(intervals, 0.50)
		a.ProbeIntervalP90 = percentile(intervals, 0.90)
	}
	return a
}

// percentile returns the p-quantile of a sorted duration slice using the
// nearest-rank method.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
