package campaign

import (
	"testing"
	"time"

	"cityhunter/internal/obs"
)

type nopPublisher struct{}

func (nopPublisher) StartRun(obs.RunInfo) obs.RunPublisher { return nopRun{} }

type nopRun struct{}

func (nopRun) PublishEvent(obs.Event)         {}
func (nopRun) FinishRun(time.Duration, error) {}

// TestCampaignETARunningMean: the ETA gauge keeps a running sum of spec
// wall times, and must read exactly what re-averaging every completed
// wall time on each spec gives.
func TestCampaignETARunningMean(t *testing.T) {
	const total, workers = 7, 2
	f := startCampaignFeed(Pool{Publisher: nopPublisher{}}, total, workers)
	walls := []time.Duration{1500 * time.Millisecond, 250 * time.Millisecond,
		3*time.Second + 7, 800 * time.Millisecond, 2*time.Second + 3, time.Second}
	for i, wall := range walls {
		f.specStarted()
		f.specFinished(i, "", wall, nil, i+1, 0)

		var mean time.Duration
		for _, d := range walls[:i+1] {
			mean += d
		}
		mean /= time.Duration(i + 1)
		batches := (total - (i + 1) + workers - 1) / workers
		if want, got := (time.Duration(batches) * mean).Seconds(), f.gETA.Value(); got != want {
			t.Errorf("after spec %d: campaign_eta_seconds = %v, want %v", i, got, want)
		}
	}
}
