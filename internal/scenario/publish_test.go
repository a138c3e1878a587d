package scenario

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"cityhunter/internal/obs"
)

// fakePublisher records everything published into it, standing in for the
// monitor server without any HTTP. Like the monitor, it pulls metrics from
// the run's registry: live while the run publishes events, and once more
// at FinishRun for the final values.
type fakePublisher struct {
	mu   sync.Mutex
	runs []*fakeRun
}

type fakeRun struct {
	mu        sync.Mutex
	info      obs.RunInfo
	events    []obs.Event
	live      []float64 // sim_events_executed read at each event
	final     obs.Snapshot
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

func (r *fakeRun) PublishEvent(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.live = append(r.live, r.info.Metrics.Snapshot().Value("sim_events_executed"))
	r.mu.Unlock()
}

func (r *fakeRun) FinishRun(at time.Duration, err error) {
	r.mu.Lock()
	r.final = r.info.Metrics.Snapshot()
	r.finished = true
	r.finishErr = err
	r.mu.Unlock()
}

// TestPublisherDoesNotPerturbRun is the determinism guarantee behind
// -monitor: attaching a publisher must leave the simulation byte-identical.
// The event-forwarding tick consumes no randomness, so tallies and victims
// match a bare run exactly.
func TestPublisherDoesNotPerturbRun(t *testing.T) {
	cfg := baseConfig(t, PassageVenue(), CityHunter, 17)
	cfg.ArrivalScale = 0.3
	plain, err := RunContext(context.Background(), cfg, 1, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	pub := &fakePublisher{}
	cfg.Publisher = pub
	cfg.PublishEvery = 30 * time.Second
	monitored, err := RunContext(context.Background(), cfg, 1, 5*time.Minute)
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
// a registry the publisher reads live and finds final at FinishRun, events
// in virtual-time order, the site-deploy event, and a clean finish.
func TestPublisherFeed(t *testing.T) {
	cfg := baseConfig(t, CanteenVenue(), CityHunter, 19)
	cfg.ArrivalScale = 0.3
	pub := &fakePublisher{}
	cfg.Publisher = pub
	cfg.PublishEvery = time.Minute
	cfg.RunLabel = "feed-test"
	if _, err := RunContext(context.Background(), cfg, 0, 5*time.Minute); err != nil {
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
	if r.info.Metrics == nil {
		t.Fatal("run registered no metrics registry")
	}
	final := r.final.Value("sim_events_executed")
	if final <= 0 {
		t.Errorf("final sim_events_executed = %v, want > 0", final)
	}
	// Live reads, one per forwarded event, never pass the final value; the
	// events themselves arrive in non-decreasing virtual time.
	for i := range r.events {
		if r.live[i] > final || i > 0 && r.events[i].At < r.events[i-1].At {
			t.Fatalf("event %d at %v (previous %v) read sim_events_executed %v, final %v",
				i, r.events[i].At, r.events[max(i-1, 0)].At, r.live[i], final)
		}
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

// TestFeedTickIdleAllocs pins the feed's per-tick cost when no group has
// buffered an event: forwarding nothing allocates nothing.
func TestFeedTickIdleAllocs(t *testing.T) {
	f := &runFeed{rp: &fakeRun{}}
	for i := 0; i < 3; i++ {
		f.buffers = append(f.buffers, &eventBuffer{RunPublisher: f.rp})
	}
	if avg := testing.AllocsPerRun(100, f.tick); avg != 0 {
		t.Errorf("idle tick allocates %.0f/op, want 0", avg)
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
		if _, err := RunDeploymentContext(context.Background(), d, 0, 5*time.Minute); err != nil {
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
