package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cityhunter"
)

// A workload is one fixed set of inputs, run closed-loop by one caller:
// each operation starts when the previous one has returned.
type workload struct {
	name string
	why  string
	// seeds is the number of operations in one round; operation i of a
	// round runs seed runSeed(seed, i) (fig5-cache: resubmits the plans
	// of all the seeds), so every round repeats the same inputs and their
	// digests must agree.
	seeds int
	// setup builds what the workload needs before its first operation,
	// timing it with sw, and tears it down again.
	setup func(e *env, sw *stopwatch) error
	open  func(e *env) (session, error)
}

// Each seed set is as large as lets a 16-second run hold two rounds or
// more, so that a median pools many crowds: the cost of one run varies by
// about ±15 % from one run seed to another, and a run of the benchmark
// with another -seed gets another seed set.
var workloads = []workload{
	{
		name:  "canteen",
		why:   "The workhorse 10-minute canteen run: sim engine and medium, client scans, ieee80211 and core replies; no linker, LoD, partitions or server.",
		seeds: 40,
		setup: setupWorld,
		open:  openCanteen(),
	},
	{
		name:  "canteen-randomized",
		why:   "Same run with every phone rotating its MAC per scan and the composite linker: ~10x the core tracks, linker scoring on every fresh MAC.",
		seeds: 40,
		setup: setupWorld,
		open: openCanteen(
			cityhunter.WithMACRandomization(1.0, cityhunter.RandomizePerScan),
			cityhunter.WithLinker(cityhunter.LinkerComposite)),
	},
	{
		name:  "city-serial",
		why:   "Three roaming sites plus a 4000-pedestrian far field on the serial engine: LoD promotion windows, geo, mobility; the largest live population.",
		seeds: 8,
		setup: setupWorld,
		open:  openCity(0),
	},
	{
		name:  "city-partitioned",
		why:   "The same deployment on the partitioned engine, the only workload using several cores inside one run; paired with city-serial for scaling.",
		seeds: 8,
		setup: setupWorld,
		open:  openCity(cityhunter.AutoPartitions),
	},
	{
		name:  "fig5-job",
		why:   "Cold Figure 5 campaign jobs (4 venues x 12 slots) through the HTTP job server: plan decode, campaign pool, result store writes.",
		seeds: 4,
		setup: setupServer,
		open:  openJobs(false),
	},
	{
		name:  "fig5-cache",
		why:   "Resubmitted Figure 5 plans served from the result store: the server's read path with no simulation, against fig5-job's cold path.",
		seeds: 4,
		setup: setupServer,
		open:  openJobs(true),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload's sessions share. The world is the calibrated
// default (world seed 1) for every -seed: world generation moves run cost
// by about 25 % between world seeds, which would drown the regressions
// the bounds are meant to catch. -seed picks the run and job seeds.
type env struct {
	world   *cityhunter.World
	seed    int64
	seeds   int    // operations per round
	workDir string // result stores live here
	stores  int
}

// runSeed is the seed of operation i. Seed sets of different -seed values
// are disjoint.
func runSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// newStoreDir returns a fresh, not yet existing store directory.
func (e *env) newStoreDir() string {
	e.stores++
	return filepath.Join(e.workDir, fmt.Sprintf("store-%d", e.stores))
}

// session is a workload set up and ready to run operations.
type session interface {
	// round starts one pass over the seed set.
	round() error
	// op runs operation i of the seed set, bracketing exactly the calls
	// it times with sw. traced arms the program's own counters and the
	// client-side spans.
	op(i int, traced bool, sw *stopwatch) (outcome, error)
	// traceStats returns what the session gathered about its traced
	// operations beyond their outcomes. It is called after the traced
	// pass, outside the profile.
	traceStats() (counters, map[string][]float64, error)
	close() error
}

// outcome is what the benchmark keeps of one operation.
type outcome struct {
	key    string // the seed (or plan) it ran; equal keys must give equal digests
	digest string
	// venues pools the operation's tallies per venue, for h_b fidelity.
	venues map[string]cityhunter.Tally
	// pairs pools the linker's true, false and missed pairs.
	pairs [3]int
	// counters holds the program's own metrics (traced operations).
	counters counters
	// layers holds client-side per-layer values (traced operations); the
	// report takes each one's median over the pass.
	layers map[string]float64
}

func (o *outcome) addTally(venue string, t cityhunter.Tally) {
	if o.venues == nil {
		o.venues = map[string]cityhunter.Tally{}
	}
	pool(o.venues, venue, t)
}

// pool adds t to venue's tally in m.
func pool(m map[string]cityhunter.Tally, venue string, t cityhunter.Tally) {
	v := m[venue]
	v.Total += t.Total
	v.Direct += t.Direct
	v.Broadcast += t.Broadcast
	v.ConnectedDirect += t.ConnectedDirect
	v.ConnectedBroadcast += t.ConnectedBroadcast
	m[venue] = v
}

func (o *outcome) addLinks(r *cityhunter.LinkReport) {
	if r != nil {
		o.pairs[0] += r.TruePairs
		o.pairs[1] += r.FalsePairs
		o.pairs[2] += r.MissedPairs
	}
}

// digest hashes the printed form of parts: tallies, outcome counts, link
// reports — every simulated result a speed-only change must leave alone.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// setupWorld times generating the calibrated world.
func setupWorld(_ *env, sw *stopwatch) error {
	sw.start()
	_, err := cityhunter.NewWorld()
	sw.stop()
	return err
}

// simSession runs one simulation per operation.
type simSession func(i int, traced bool, sw *stopwatch) (outcome, error)

func (s simSession) round() error { return nil }
func (s simSession) close() error { return nil }
func (s simSession) traceStats() (counters, map[string][]float64, error) {
	return nil, nil, nil
}
func (s simSession) op(i int, traced bool, sw *stopwatch) (outcome, error) {
	return s(i, traced, sw)
}

// openCanteen runs the City-Hunter attacker in the canteen's lunch hour
// for 10 virtual minutes.
func openCanteen(extra ...cityhunter.RunOption) func(*env) (session, error) {
	return func(e *env) (session, error) {
		return simSession(func(i int, traced bool, sw *stopwatch) (outcome, error) {
			seed := runSeed(e.seed, i)
			opts := append([]cityhunter.RunOption{cityhunter.WithRunSeed(seed)}, extra...)
			if traced {
				opts = append(opts, cityhunter.WithMetrics())
			}
			venue := cityhunter.CanteenVenue()
			sw.start()
			res, err := e.world.Run(venue, cityhunter.CityHunter, cityhunter.LunchSlot, 10*time.Minute, opts...)
			sw.stop()
			if err != nil {
				return outcome{}, err
			}
			o := outcome{
				key:      fmt.Sprint(seed),
				digest:   digest(res.Tally, len(res.Outcomes), res.Links),
				counters: snapshotCounters(res.Metrics),
			}
			o.addTally(res.Venue, res.Tally)
			o.addLinks(res.Links)
			return o, nil
		}), nil
	}
}

// openCity deploys City-Hunter at the station, canteen and mall for 10
// virtual lunch-hour minutes, with 30 % of phones roaming between them and
// a 4000-pedestrian far field promoted within 80 m of a site.
func openCity(partitions int) func(*env) (session, error) {
	return func(e *env) (session, error) {
		stops := e.world.City.RouteStops()
		return simSession(func(i int, traced bool, sw *stopwatch) (outcome, error) {
			seed := runSeed(e.seed, i)
			runOpts := []cityhunter.RunOption{cityhunter.WithRunSeed(seed)}
			if traced {
				runOpts = append(runOpts, cityhunter.WithMetrics())
			}
			sites := []cityhunter.Venue{cityhunter.StationVenue(), cityhunter.CanteenVenue(), cityhunter.MallVenue()}
			sw.start()
			res, err := e.world.DeploySitesContext(context.Background(), sites, cityhunter.CityHunter,
				cityhunter.LunchSlot, 10*time.Minute,
				cityhunter.WithRoaming(0.3),
				cityhunter.WithPopulationScale(4000),
				cityhunter.WithLODRadius(80),
				cityhunter.WithCityRoutes(stops),
				cityhunter.WithPartitions(partitions),
				cityhunter.WithRunOptions(runOpts...))
			sw.stop()
			if err != nil {
				return outcome{}, err
			}
			if res.FarField == nil {
				return outcome{}, errors.New("deployment returned no far-field result")
			}
			ff := res.FarField
			parts := []any{res.Tally, len(res.Outcomes), res.Roams,
				ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted, ff.Tally}
			o := outcome{key: fmt.Sprint(seed), counters: snapshotCounters(res.Metrics)}
			for _, site := range res.Sites {
				parts = append(parts, site.Venue, site.Tally, site.Links)
				o.addTally(site.Venue, site.Tally)
				o.addLinks(site.Links)
			}
			o.digest = digest(parts...)
			return o, nil
		}), nil
	}
}

// figure5Plan is the Figure 5 campaign as a plan envelope: City-Hunter at
// all four venues for each of the 12 hour slots, 5 virtual minutes each at
// 60 % of the venues' arrival rates. Spec seeds derive from the job seed.
func figure5Plan() cityhunter.Plan {
	scale := 0.6
	var specs []cityhunter.RunSpec
	for _, v := range cityhunter.AllVenues() {
		for slot := 0; slot < v.Profile.Slots(); slot++ {
			specs = append(specs, cityhunter.RunSpec{
				Name:         fmt.Sprintf("%s slot %d", v.Name, slot),
				Venue:        v,
				Attack:       cityhunter.CityHunter,
				Slot:         slot,
				Duration:     5 * time.Minute,
				ArrivalScale: &scale,
			})
		}
	}
	return cityhunter.Plan{Kind: cityhunter.KindCampaign, Specs: specs}
}

// startServer starts a campaign job server on store and returns it with
// its base URL. Every job runs against w, with the base configuration
// World.Run starts from, so the job seed picks only the run seeds.
//
// BaseConfig copies the unexported World.baseRunConfig in cityhunter.go,
// calibrated defaults included; keep the two equal until the root package
// exports it.
func startServer(w *cityhunter.World, store string) (*cityhunter.CampaignServer, string, error) {
	srv, err := cityhunter.NewCampaignServer(cityhunter.CampaignServerConfig{
		StoreDir: store,
		Workers:  runtime.NumCPU(),
		MaxJobs:  1,
		BaseConfig: func(seed int64) (cityhunter.RunConfig, error) {
			return cityhunter.RunConfig{
				City:                 w.City,
				HeatMap:              w.Heat,
				PNL:                  w.PNL,
				WiGLE:                w.WiGLE,
				DirectProberFraction: 0.15,
				Seed:                 seed,
			}, nil
		},
	})
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	// Wait for the first 200 OK: until the server has answered once, its
	// serving goroutine may not have started, and closing it then panics.
	base := "http://" + addr
	code, _, err := get(http.DefaultClient, base+"/")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET / = %d", code)
	}
	if err != nil {
		srv.Shutdown()
		return nil, "", err
	}
	return srv, base, nil
}

// setupServer times what a job server costs before it takes a job:
// generating the world, then starting the server until its first 200 OK.
func setupServer(e *env, sw *stopwatch) error {
	store := e.newStoreDir()
	sw.start()
	w, err := cityhunter.NewWorld()
	var srv *cityhunter.CampaignServer
	if err == nil {
		srv, _, err = startServer(w, store)
	}
	sw.stop()
	if err != nil {
		return err
	}
	srv.Shutdown()
	return os.RemoveAll(store)
}

// jobSession drives one job server over HTTP with one client.
type jobSession struct {
	e      *env
	plan   cityhunter.Plan
	body   []byte // the encoded plan
	client *http.Client
	srv    *cityhunter.CampaignServer
	base   string
	store  string
	// primed holds, for fig5-cache, the cold result of each plan it
	// resubmits; fig5-job leaves it nil and runs every round on a fresh
	// store so that every job is cold.
	primed map[int64][]byte
	// tallied records the seeds whose results were decoded for fidelity.
	tallied map[int64]bool

	// The traced operations' job IDs on the current server, and what was
	// gathered about earlier servers' traced jobs.
	traced   []string
	counters counters
	layers   map[string][]float64
}

// exchange is what one job operation saw over HTTP.
type exchange struct {
	id            string
	result        []byte
	submit, fetch time.Duration // the POST and the GET of the result
}

func openJobs(hits bool) func(*env) (session, error) {
	return func(e *env) (session, error) {
		s := &jobSession{e: e, plan: figure5Plan(), client: &http.Client{},
			tallied: map[int64]bool{}, counters: counters{}, layers: map[string][]float64{}}
		var err error
		if s.body, err = cityhunter.EncodePlan(s.plan); err != nil {
			return nil, err
		}
		if err := s.restart(true); err != nil {
			return nil, err
		}
		if !hits {
			return s, nil
		}
		s.primed = map[int64][]byte{}
		for i := 0; i < e.seeds; i++ {
			seed := runSeed(e.seed, i)
			x, err := s.cold(seed)
			if err != nil {
				s.close()
				return nil, fmt.Errorf("prime job seed %d: %w", seed, err)
			}
			s.primed[seed] = x.result
		}
		return s, nil
	}
}

// restart replaces the server, on a new empty store when fresh.
func (s *jobSession) restart(fresh bool) error {
	if err := s.stop(); err != nil {
		return err
	}
	if fresh {
		if err := os.RemoveAll(s.store); err != nil {
			return err
		}
		s.store = s.e.newStoreDir()
	}
	var err error
	s.srv, s.base, err = startServer(s.e.world, s.store)
	return err
}

// round restarts the server. fig5-job gets an empty store, so every job
// is cold. fig5-cache keeps its store, so hits come from disk, while the
// new server's list of jobs starts empty: the server keeps every job it
// was sent, so without restarts its heap would grow with the hit rate.
func (s *jobSession) round() error { return s.restart(s.primed == nil) }

// stop gathers what the traced jobs left on the server and shuts it down.
func (s *jobSession) stop() error {
	if s.srv == nil {
		return nil
	}
	err := s.gather()
	s.srv.Shutdown()
	s.client.CloseIdleConnections()
	s.srv = nil
	return err
}

func (s *jobSession) close() error {
	err := s.stop()
	if rmErr := os.RemoveAll(s.store); err == nil {
		err = rmErr
	}
	return err
}

// op runs one cold job (fig5-job), or resubmits every primed plan once
// (fig5-cache): single hits take about 2 ms and their latency is bimodal,
// so a batch gives a steadier median.
func (s *jobSession) op(i int, traced bool, sw *stopwatch) (outcome, error) {
	seeds := []int64{runSeed(s.e.seed, i)}
	if s.primed != nil {
		seeds = seeds[:0]
		for j := 0; j < s.e.seeds; j++ {
			seeds = append(seeds, runSeed(s.e.seed, j))
		}
	}
	xs := make([]exchange, len(seeds))
	var err error
	sw.start()
	for k, seed := range seeds {
		if s.primed != nil {
			xs[k], err = s.hit(seed)
		} else {
			xs[k], err = s.cold(seed)
		}
		if err != nil {
			break
		}
	}
	sw.stop()
	if err != nil {
		return outcome{}, err
	}

	o := outcome{key: fmt.Sprint(seeds)}
	var digests []any
	for k, x := range xs {
		digests = append(digests, sha(x.result))
		if s.tallied[seeds[k]] {
			continue
		}
		s.tallied[seeds[k]] = true
		var doc cityhunter.JobResult
		if err := json.Unmarshal(x.result, &doc); err != nil {
			return outcome{}, fmt.Errorf("decode result: %w", err)
		}
		for _, sr := range doc.Specs {
			o.addTally(sr.Venue, sr.Tally)
		}
	}
	o.digest = digest(digests...)
	if traced {
		var submit, fetch []float64
		for _, x := range xs {
			s.traced = append(s.traced, x.id)
			submit = append(submit, ms(x.submit))
			fetch = append(fetch, ms(x.fetch))
		}
		o.layers = map[string]float64{"serve.submit_ms": mean(submit), "serve.result_ms": mean(fetch)}
	}
	return o, nil
}

// cold submits a job that has not run before and waits for it on its SSE
// stream until it finishes, then reads its result.
func (s *jobSession) cold(seed int64) (exchange, error) {
	sub := []byte(fmt.Sprintf(`{"plan":%s,"seed":%d}`, s.body, seed))
	var x exchange
	t0 := time.Now()
	code, status, err := post(s.client, s.base+"/api/v1/jobs", sub)
	x.submit = time.Since(t0)
	if err != nil {
		return x, err
	}
	if code != http.StatusAccepted {
		return x, fmt.Errorf("job seed %d: POST = %d, want 202 for a cold job: %s", seed, code, status)
	}
	if x.id, err = jobID(status); err != nil {
		return x, err
	}
	code, events, err := get(s.client, s.base+"/api/v1/jobs/"+x.id+"/events")
	if err != nil {
		return x, err
	}
	if code != http.StatusOK || !bytes.Contains(events, []byte("event: finished")) {
		return x, fmt.Errorf("job %s did not finish (events %d): %s", x.id, code, lastLine(events))
	}
	return x, s.fetch(&x)
}

// hit resubmits a primed plan; the server must answer from its store with
// every spec cached and the cold result's exact bytes.
func (s *jobSession) hit(seed int64) (exchange, error) {
	sub := []byte(fmt.Sprintf(`{"plan":%s,"seed":%d}`, s.body, seed))
	var x exchange
	t0 := time.Now()
	code, status, err := post(s.client, s.base+"/api/v1/jobs", sub)
	x.submit = time.Since(t0)
	if err != nil {
		return x, err
	}
	if code != http.StatusOK {
		return x, fmt.Errorf("job seed %d: POST = %d, want 200 for a stored plan: %s", seed, code, status)
	}
	var st cityhunter.JobStatus
	if err := json.Unmarshal(status, &st); err != nil {
		return x, fmt.Errorf("decode job status: %w", err)
	}
	if st.State != "finished" || st.SpecsCached != st.SpecsTotal {
		return x, fmt.Errorf("job %s: state %s with %d of %d specs cached, want a finished cache hit",
			st.ID, st.State, st.SpecsCached, st.SpecsTotal)
	}
	x.id = st.ID
	if err := s.fetch(&x); err != nil {
		return x, err
	}
	if !bytes.Equal(x.result, s.primed[seed]) {
		return x, fmt.Errorf("job %s: cache hit differs from the cold result of seed %d", st.ID, seed)
	}
	return x, nil
}

// fetch reads a finished job's result document.
func (s *jobSession) fetch(x *exchange) error {
	t0 := time.Now()
	code, res, err := get(s.client, s.base+"/api/v1/jobs/"+x.id+"/result")
	x.fetch = time.Since(t0)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("job %s: GET result = %d", x.id, code)
	}
	x.result = res
	return nil
}

// traceStats returns what was gathered about the traced jobs.
func (s *jobSession) traceStats() (counters, map[string][]float64, error) {
	err := s.gather()
	return s.counters, s.layers, err
}

// gather reads, for the current server's traced jobs, each job's status,
// the program's counters for those jobs from /metrics, the result store's
// size, and times the plan codec directly. It runs after the jobs, so
// none of it lands in the profiled or timed work of the operations.
func (s *jobSession) gather() error {
	if len(s.traced) == 0 {
		return nil
	}
	ids := map[string]bool{}
	for _, id := range s.traced {
		ids[id] = true
		code, body, err := get(s.client, s.base+"/api/v1/jobs/"+id)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("job %s: GET status = %d: %v", id, code, err)
		}
		var st cityhunter.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("decode job status: %w", err)
		}
		queue, exec := 0.0, 0.0
		if st.Started != nil && st.Finished != nil {
			queue, exec = ms(st.Started.Sub(st.Submitted)), st.Finished.Sub(*st.Started).Seconds()
		}
		s.layers["serve.queue_ms"] = append(s.layers["serve.queue_ms"], queue)
		s.layers["serve.exec_s"] = append(s.layers["serve.exec_s"], exec)
		s.layers["serve.specs_run"] = append(s.layers["serve.specs_run"], float64(st.SpecsRun))
		s.layers["serve.specs_cached"] = append(s.layers["serve.specs_cached"], float64(st.SpecsCached))
	}
	s.traced = nil

	code, body, err := get(s.client, s.base+"/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET /metrics = %d: %v", code, err)
	}
	c, err := promCounters(bytes.NewReader(body), func(l map[string]string) bool { return ids[l["job"]] })
	if err != nil {
		return err
	}
	s.counters.merge(c)

	size, results, err := storeSize(s.store)
	if err != nil {
		return err
	}
	s.layers["serve.store_kb_per_job"] = append(s.layers["serve.store_kb_per_job"], ratio(float64(size)/1024, float64(results)))

	for i := 0; i < 11; i++ {
		t0 := time.Now()
		enc, err := cityhunter.EncodePlan(s.plan)
		t1 := time.Now()
		if err == nil {
			_, err = cityhunter.DecodePlan(enc)
		}
		if err != nil {
			return err
		}
		s.layers["plan.encode_ms"] = append(s.layers["plan.encode_ms"], ms(t1.Sub(t0)))
		s.layers["plan.decode_ms"] = append(s.layers["plan.decode_ms"], ms(time.Since(t1)))
	}
	return nil
}

// storeSize sums the bytes under a result store and counts its results.
func storeSize(dir string) (total int64, results int, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if d.Name() == "result.json" {
			results++
		}
		return nil
	})
	return total, results, err
}

func jobID(status []byte) (string, error) {
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(status, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("job status without an id: %s", status)
	}
	return st.ID, nil
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	return read(resp, err)
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	return read(resp, err)
}

func read(resp *http.Response, err error) (int, []byte, error) {
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }
