package scenario

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"cityhunter/internal/obs"
)

// fakePublisher records everything published into it, standing in for the
// monitor server without any HTTP.
type fakePublisher struct {
	mu   sync.Mutex
	runs []*fakeRun
}

type fakeRun struct {
	mu        sync.Mutex
	info      obs.RunInfo
	snapAts   []time.Duration
	lastSnap  obs.Snapshot
	events    []obs.Event
	finished  bool
	finishErr error
}

func (p *fakePublisher) StartRun(info obs.RunInfo) obs.RunPublisher {
	r := &fakeRun{info: info}
	p.mu.Lock()
	p.runs = append(p.runs, r)
	p.mu.Unlock()
	return r
}

func (p *fakePublisher) run(t *testing.T, i int) *fakeRun {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if i >= len(p.runs) {
		t.Fatalf("publisher saw %d runs, want index %d", len(p.runs), i)
	}
	return p.runs[i]
}

func (r *fakeRun) PublishSnapshot(at time.Duration, snap obs.Snapshot) {
	r.mu.Lock()
	r.snapAts = append(r.snapAts, at)
	r.lastSnap = snap
	r.mu.Unlock()
}

func (r *fakeRun) PublishEvent(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func (r *fakeRun) FinishRun(at time.Duration, err error) {
	r.mu.Lock()
	r.finished = true
	r.finishErr = err
	r.mu.Unlock()
}

// TestPublisherDoesNotPerturbRun is the determinism guarantee behind
// -monitor: attaching a publisher must leave the simulation byte-identical.
// The snapshot tick consumes no randomness, so tallies and victims match a
// bare run exactly.
func TestPublisherDoesNotPerturbRun(t *testing.T) {
	cfg := baseConfig(t, PassageVenue(), CityHunter, 17)
	cfg.ArrivalScale = 0.3
	plain, err := Run(cfg, 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	pub := &fakePublisher{}
	cfg.Publisher = pub
	cfg.PublishEvery = 30 * time.Second
	monitored, err := Run(cfg, 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Tally != monitored.Tally {
		t.Errorf("publisher perturbed the run:\nplain     %v\nmonitored %v",
			plain.Tally, monitored.Tally)
	}
	if len(plain.Victims) != len(monitored.Victims) {
		t.Errorf("victims differ: %d plain vs %d monitored",
			len(plain.Victims), len(monitored.Victims))
	}
}

// TestPublisherFeed checks what the run actually streams: identity labels,
// virtual-time snapshot cadence, the site-deploy event, and a clean finish.
func TestPublisherFeed(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 19)
	cfg.ArrivalScale = 0.3
	pub := &fakePublisher{}
	cfg.Publisher = pub
	cfg.PublishEvery = time.Minute
	cfg.RunLabel = "feed-test"
	if _, err := Run(cfg, 0, 5*time.Minute); err != nil {
		t.Fatal(err)
	}

	r := pub.run(t, 0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Kind != "run" || r.info.Label != "feed-test" {
		t.Errorf("run info = %+v, want kind=run label=feed-test", r.info)
	}
	if r.info.Labels["seed"] != "19" {
		t.Errorf("run labels = %v, want seed=19", r.info.Labels)
	}
	// Tick at 0,1m..5m plus the final flush = at least 6 snapshots, in
	// non-decreasing virtual time.
	if len(r.snapAts) < 6 {
		t.Fatalf("got %d snapshots, want >= 6 at 1m cadence over 5m", len(r.snapAts))
	}
	for i := 1; i < len(r.snapAts); i++ {
		if r.snapAts[i] < r.snapAts[i-1] {
			t.Errorf("snapshot times regress: %v", r.snapAts)
		}
	}
	if v := r.lastSnap.Value("sim_events_executed"); v <= 0 {
		t.Errorf("final snapshot sim_events_executed = %v, want > 0", v)
	}
	deploys := 0
	for _, ev := range r.events {
		if ev.Type == obs.EventSiteDeploy {
			deploys++
		}
	}
	if deploys != 1 {
		t.Errorf("site-deploy events = %d, want 1", deploys)
	}
	if !r.finished || r.finishErr != nil {
		t.Errorf("finish = (%v, %v), want clean finish", r.finished, r.finishErr)
	}
}

// TestDeploymentPublisherFeed: a deployment's site groups buffer their live
// events and the feed forwards them at each tick, so the monitor sees every
// group's events — site deploys, associations — as one stream that is the
// same on one goroutine and on one per group.
func TestDeploymentPublisherFeed(t *testing.T) {
	stream := func(partitions int) []obs.Event {
		d := partitionedTrio(t, 19)
		pub := &fakePublisher{}
		d.Base.Publisher = pub
		d.Base.PublishEvery = time.Minute
		d.Partitions = partitions
		if _, err := RunDeployment(d, 0, 5*time.Minute); err != nil {
			t.Fatal(err)
		}
		r := pub.run(t, 0)
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.info.Kind != "deployment" || !r.finished || r.finishErr != nil {
			t.Errorf("partitions=%d: run %+v finished=%v err=%v", partitions, r.info, r.finished, r.finishErr)
		}
		return r.events
	}
	events := stream(0)
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
	}
	if counts[obs.EventSiteDeploy] != 3 || counts[obs.EventAssociation] == 0 {
		t.Errorf("event counts %v, want 3 site deploys and some associations", counts)
	}
	if got := stream(AutoPartitions); !reflect.DeepEqual(events, got) {
		t.Errorf("live event stream differs between one goroutine and one per group")
	}
}
