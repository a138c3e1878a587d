// Package serve is the campaign job plane: an HTTP/JSON API that accepts
// plans (the versioned envelope of internal/plan) as job submissions, runs
// them on a shared bounded campaign pool, streams per-job progress over
// SSE, and persists results in a content-addressed store so identical
// submissions are cache hits and interrupted campaigns resume from their
// completed specs.
//
// The API surface:
//
//	POST   /api/v1/jobs               submit a plan (JSON submission body)
//	GET    /api/v1/jobs               list jobs
//	GET    /api/v1/jobs/{id}          one job's status
//	DELETE /api/v1/jobs/{id}          cancel a job (checkpoints survive)
//	GET    /api/v1/jobs/{id}/result   the final result document
//	GET    /api/v1/jobs/{id}/events   SSE stream of the job's event log
//
// Everything else — /metrics, /runs, /events, /debug/pprof — is the
// embedded monitor.Server: every job's campaign and spec runs publish into
// it labelled with the job id, and the server's own job counters are
// attached to the same exposition.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"cityhunter/internal/campaign"
	"cityhunter/internal/obs"
	"cityhunter/internal/obs/monitor"
	"cityhunter/internal/plan"
	"cityhunter/internal/scenario"
	"cityhunter/internal/stats"
)

// DefaultMaxBodyBytes bounds job submission bodies (plans are small; a
// megabyte fits thousands of specs).
const DefaultMaxBodyBytes = 1 << 20

// Config configures a job server.
type Config struct {
	// StoreDir roots the content-addressed result store. Required.
	StoreDir string
	// BaseConfig supplies the base run configuration (world handles and
	// calibrated defaults) for a job seed. Required — it is how the
	// server stays decoupled from world construction.
	BaseConfig func(seed int64) (scenario.Config, error)
	// Workers bounds each job's campaign pool (0 = GOMAXPROCS).
	Workers int
	// MaxJobs bounds concurrently running jobs; further submissions
	// queue. 0 means 1.
	MaxJobs int
	// MaxBodyBytes bounds submission bodies; 0 selects
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Monitor, when non-nil, is the telemetry plane to mount and publish
	// into; nil creates a private one.
	Monitor *monitor.Server
}

// Server is the job plane. Create with New, expose with Start (or mount
// Handler), stop with Shutdown.
type Server struct {
	cfg     Config
	store   *Store
	monitor *monitor.Server

	reg               *obs.Registry
	mJobsSubmitted    *obs.Counter
	mJobsFinished     *obs.Counter
	mJobsFailed       *obs.Counter
	mJobsCancelled    *obs.Counter
	mJobsCheckpointed *obs.Counter
	mSpecsRun         *obs.Counter
	mSpecsCached      *obs.Counter
	gJobsRunning      *obs.Gauge

	drain chan struct{} // closed by Shutdown: stop dispatching specs
	sem   chan struct{} // MaxJobs tokens

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	seq      int
	draining bool
	wg       sync.WaitGroup

	httpMu sync.Mutex
	ln     net.Listener
	hs     *http.Server
}

// New builds a job server.
func New(cfg Config) (*Server, error) {
	if cfg.BaseConfig == nil {
		return nil, errors.New("serve: Config.BaseConfig is required")
	}
	store, err := NewStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	mon := cfg.Monitor
	if mon == nil {
		mon = monitor.New()
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:               cfg,
		store:             store,
		monitor:           mon,
		reg:               reg,
		mJobsSubmitted:    reg.Counter("server_jobs_submitted"),
		mJobsFinished:     reg.Counter("server_jobs_finished"),
		mJobsFailed:       reg.Counter("server_jobs_failed"),
		mJobsCancelled:    reg.Counter("server_jobs_cancelled"),
		mJobsCheckpointed: reg.Counter("server_jobs_checkpointed"),
		mSpecsRun:         reg.Counter("server_specs_run"),
		mSpecsCached:      reg.Counter("server_specs_cached"),
		gJobsRunning:      reg.Gauge("server_jobs_running"),
		drain:             make(chan struct{}),
		sem:               make(chan struct{}, cfg.MaxJobs),
		jobs:              make(map[string]*job),
	}
	mon.Attach(reg, "component", "server")
	return s, nil
}

// submission is the POST /api/v1/jobs body. Plan is the versioned
// envelope and is the only accepted plan input. attack/slot/minutes apply
// to venue and deployment plans (campaign plans carry them per run) and
// workers overrides the server's per-job pool width. plan.RunSpecs turns
// the plan and these parameters into the job's specs; the parameters enter
// the content hash as a parameter string, workers and label never do.
type submission struct {
	Plan    json.RawMessage `json:"plan"`
	Seed    int64           `json:"seed,omitempty"`
	Workers int             `json:"workers,omitempty"`
	Label   string          `json:"label,omitempty"`
	Attack  string          `json:"attack,omitempty"`
	Slot    int             `json:"slot,omitempty"`
	Minutes float64         `json:"minutes,omitempty"`
}

// apiError is every non-2xx JSON body: the message, plus the offending
// plan field when validation identified one.
type apiError struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders err as a structured JSON error; a scenario.FieldError
// anywhere in the chain contributes its field path.
func writeError(w http.ResponseWriter, code int, err error) {
	out := apiError{Error: err.Error()}
	var fe *scenario.FieldError
	if errors.As(err, &fe) {
		out.Field = fe.Path
	}
	writeJSON(w, code, out)
}

// Handler returns the full mux: the job API plus the mounted monitor.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/jobs", s.handleJobs)
	mux.HandleFunc("/api/v1/jobs/", s.handleJob)
	monh := s.monitor.Handler()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			s.handleIndex(w, r)
			return
		}
		monh.ServeHTTP(w, r)
	})
	return mux
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "cityhunter campaign server")
	fmt.Fprintln(w, "  POST   /api/v1/jobs             submit a plan")
	fmt.Fprintln(w, "  GET    /api/v1/jobs             list jobs")
	fmt.Fprintln(w, "  GET    /api/v1/jobs/{id}        job status")
	fmt.Fprintln(w, "  DELETE /api/v1/jobs/{id}        cancel a job")
	fmt.Fprintln(w, "  GET    /api/v1/jobs/{id}/result final result JSON")
	fmt.Fprintln(w, "  GET    /api/v1/jobs/{id}/events SSE job event stream")
	fmt.Fprintln(w, "  GET    /metrics                 merged Prometheus exposition")
	fmt.Fprintln(w, "  GET    /runs, /events           live run telemetry")
	fmt.Fprintln(w, "  GET    /debug/pprof             process profiling")
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		s.mu.Lock()
		list := make([]JobStatus, 0, len(s.order))
		for _, id := range s.order {
			list = append(list, s.jobs[id].status())
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, list)
	case http.MethodPost:
		s.handleSubmit(w, r)
	default:
		w.Header().Set("Allow", "GET, HEAD, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: server is draining"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: read body: %w", err))
		return
	}
	var sub submission
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sub); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode submission: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: decode submission: trailing data after the submission"))
		return
	}
	if len(sub.Plan) == 0 {
		writeError(w, http.StatusBadRequest, &scenario.FieldError{Path: "plan", Reason: "serve: submission needs a plan envelope"})
		return
	}
	p, err := plan.Decode(sub.Plan)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, created, err := s.admit(p, sub)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusAccepted
	}
	writeJSON(w, code, j.status())
}

// admit hashes, registers and dispatches a submission. An identical plan
// already queued or running is returned as-is (idempotent submit); an
// identical plan with a stored final result finishes instantly from the
// store. created reports whether a run was actually dispatched.
func (s *Server) admit(p plan.Plan, sub submission) (*job, bool, error) {
	seed := sub.Seed
	if seed == 0 {
		seed = 1
	}
	prm := plan.Params{Seed: seed, Attack: sub.Attack, Slot: sub.Slot, Minutes: sub.Minutes}
	params := fmt.Sprintf("seed=%d", seed)
	if p.Kind != plan.KindCampaign {
		if prm.Attack == "" {
			prm.Attack = "cityhunter"
		}
		if prm.Minutes == 0 {
			prm.Minutes = 60
		}
		// The run seed re-keys venue and deployment results: they once ran
		// at a derived campaign seed, and the store must not serve those.
		params = fmt.Sprintf("seed=%d runSeed=%d attack=%s slot=%d minutes=%g",
			seed, seed, prm.Attack, prm.Slot, prm.Minutes)
	}
	specs, err := plan.RunSpecs(p, prm)
	if err != nil {
		return nil, false, err
	}
	// Like the worker count, a deployment's partition count changes wall
	// time only, so it stays out of the content hash: a plan differing
	// only in partitions is a store hit.
	hashed := p
	if p.Kind == plan.KindDeployment {
		d := *p.Deployment
		d.Partitions = 0
		hashed.Deployment = &d
	}
	canonical, err := plan.Encode(hashed)
	if err != nil {
		return nil, false, err
	}
	doc := append(append([]byte{}, canonical...), '\n')
	doc = append(doc, params...)
	doc = append(doc, '\n')
	sum := sha256.Sum256(doc)
	hash := hex.EncodeToString(sum[:])

	workers := sub.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	label := sub.Label
	if label == "" {
		label = fmt.Sprintf("%s %s", p.Kind, hash[:8])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errors.New("serve: server is draining")
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		if prev := s.jobs[s.order[i]]; prev.hash == hash && !prev.terminal() {
			return prev, false, nil
		}
	}
	if err := s.store.PutPlan(hash, doc); err != nil {
		return nil, false, err
	}

	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        fmt.Sprintf("job-%d", s.seq),
		hash:      hash,
		kind:      p.Kind,
		label:     label,
		seed:      seed,
		workers:   workers,
		specs:     specs,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		state:     StateQueued,
		subs:      make(map[int]chan jobEvent),
	}
	j.eventLocked("queued", fmt.Sprintf("%d specs, hash %s", len(specs), hash[:8]))
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mJobsSubmitted.Inc()

	if _, ok := s.store.Result(hash); ok {
		// The whole plan already ran to completion: serve it from the
		// store without dispatching anything.
		j.mu.Lock()
		j.done = len(specs)
		j.cached = len(specs)
		j.eventLocked("cache-hit", "result served from store")
		j.mu.Unlock()
		s.mSpecsCached.Add(int64(len(specs)))
		j.terminate(StateFinished, "", "all specs cached")
		s.mJobsFinished.Inc()
		return j, false, nil
	}

	s.wg.Add(1)
	go s.runJob(j)
	return j, true, nil
}

// runJob is the per-job dispatcher goroutine: it waits for a pool slot,
// resumes from the store, runs the campaign and persists the outcome.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	select {
	case s.sem <- struct{}{}:
	case <-s.drain:
		j.terminate(StateCheckpointed, "", "server drained before start")
		s.mJobsCheckpointed.Inc()
		return
	case <-j.ctx.Done():
		j.terminate(StateCancelled, context.Canceled.Error(), "cancelled while queued")
		s.mJobsCancelled.Inc()
		return
	}
	defer func() { <-s.sem }()
	select {
	case <-s.drain:
		j.terminate(StateCheckpointed, "", "server drained before start")
		s.mJobsCheckpointed.Inc()
		return
	case <-j.ctx.Done():
		j.terminate(StateCancelled, context.Canceled.Error(), "cancelled while queued")
		s.mJobsCancelled.Inc()
		return
	default:
	}

	j.start()
	s.gJobsRunning.Set(float64(len(s.sem)))

	base, err := s.cfg.BaseConfig(j.seed)
	if err != nil {
		j.terminate(StateFailed, err.Error(), "base configuration: "+err.Error())
		s.mJobsFailed.Inc()
		return
	}
	base.Seed = j.seed

	n := len(j.specs)
	cached := make([]*SpecResult, n)
	for i := 0; i < n; i++ {
		if sr, ok := s.store.Spec(j.hash, i); ok {
			c := sr
			cached[i] = &c
		}
	}
	fresh := make([]*SpecResult, n)

	c := &campaign.Campaign{
		Base:  base,
		Specs: j.specs,
		Pool: campaign.Pool{
			Workers:   j.workers,
			Publisher: s.monitor,
			Label:     fmt.Sprintf("%s (%s)", j.label, j.id),
			Labels:    map[string]string{"job": j.id},
			Completed: func(i int) bool { return cached[i] != nil },
			Drain:     s.drain,
			OnProgress: func(p campaign.Progress) {
				s.onSpec(j, cached, fresh, p)
			},
		},
	}
	_, runErr := c.Run(j.ctx)
	defer s.gJobsRunning.Set(float64(len(s.sem) - 1))

	switch {
	case runErr == nil:
		specs := make([]SpecResult, n)
		tallies := make([]stats.Tally, 0, n)
		for i := range specs {
			switch {
			case cached[i] != nil:
				specs[i] = *cached[i]
			case fresh[i] != nil:
				specs[i] = *fresh[i]
			default:
				j.terminate(StateFailed, "", fmt.Sprintf("spec %d missing from outcome", i))
				s.mJobsFailed.Inc()
				return
			}
			tallies = append(tallies, specs[i].Tally)
		}
		res := Result{
			Hash:      j.hash,
			Kind:      string(j.kind),
			Seed:      j.seed,
			Specs:     specs,
			Aggregate: campaign.AggregateTallies(tallies),
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			j.terminate(StateFailed, err.Error(), "encode result: "+err.Error())
			s.mJobsFailed.Inc()
			return
		}
		data = append(data, '\n')
		if err := s.store.PutResult(j.hash, data); err != nil {
			j.terminate(StateFailed, err.Error(), "persist result: "+err.Error())
			s.mJobsFailed.Inc()
			return
		}
		j.terminate(StateFinished, "", res.Aggregate.String())
		s.mJobsFinished.Inc()
	case errors.Is(runErr, campaign.ErrDrained):
		j.terminate(StateCheckpointed, "",
			fmt.Sprintf("drained; %d/%d specs durable", completedCount(cached, fresh), n))
		s.mJobsCheckpointed.Inc()
	case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
		j.terminate(StateCancelled, runErr.Error(),
			fmt.Sprintf("cancelled; %d/%d specs durable", completedCount(cached, fresh), n))
		s.mJobsCancelled.Inc()
	default:
		j.terminate(StateFailed, runErr.Error(), runErr.Error())
		s.mJobsFailed.Inc()
	}
}

// completedCount counts specs with a durable checkpoint.
func completedCount(cached, fresh []*SpecResult) int {
	n := 0
	for i := range cached {
		if cached[i] != nil || fresh[i] != nil {
			n++
		}
	}
	return n
}

// onSpec folds one spec's progress into the job: checkpoints new results,
// counts cache hits and failures, and appends the job event.
func (s *Server) onSpec(j *job, cached, fresh []*SpecResult, p campaign.Progress) {
	name := p.Name
	if name == "" {
		name = fmt.Sprintf("run %d", p.Index)
	}
	if p.Skipped {
		j.mu.Lock()
		j.done = p.Done
		j.cached++
		j.eventLocked("spec-cached", fmt.Sprintf("%s (%d/%d) served from store", name, p.Done, p.Total))
		j.mu.Unlock()
		s.mSpecsCached.Inc()
		return
	}
	if p.Err != nil {
		j.mu.Lock()
		j.done = p.Done
		j.failed++
		j.eventLocked("spec-failed", fmt.Sprintf("%s (%d/%d): %v", name, p.Done, p.Total, p.Err))
		j.mu.Unlock()
		return
	}
	var sr SpecResult
	switch {
	case p.Result != nil:
		sr = specResultFromRun(p.Index, p.Name, p.Result)
	case p.Deployment != nil:
		sr = specResultFromDeployment(p.Index, p.Name, j.specs[p.Index], p.Deployment)
	default:
		return
	}
	fresh[p.Index] = &sr
	detail := fmt.Sprintf("%s (%d/%d) h=%v", name, p.Done, p.Total, sr.Tally.HitRate())
	if err := s.store.PutSpec(j.hash, p.Index, sr); err != nil {
		detail += "; checkpoint error: " + err.Error()
	}
	j.mu.Lock()
	j.done = p.Done
	j.ran++
	j.eventLocked("spec-done", detail)
	j.mu.Unlock()
	s.mSpecsRun.Inc()
}

// handleJob routes /api/v1/jobs/{id}[/result|/events].
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			writeJSON(w, http.StatusOK, j.status())
		case http.MethodDelete:
			j.cancel()
			writeJSON(w, http.StatusOK, j.status())
		default:
			w.Header().Set("Allow", "GET, HEAD, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	case "result":
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		data, ok := s.store.Result(j.hash)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("serve: job %s has no result (state %s)", id, j.status().State))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(data)
	case "events":
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		s.handleJobEvents(w, r, j)
	default:
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job resource %q", sub))
	}
}

// handleJobEvents streams the job's event log over SSE: full replay, then
// live events until the job terminates or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	replay, live, cancel := j.subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fmt.Fprint(w, "retry: 2000\n\n")
	n := 0
	emit := func(ev jobEvent) {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		n++
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", n, ev.Type, data)
	}
	for _, ev := range replay {
		emit(ev)
	}
	fl.Flush()
	if live == nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return
			}
			emit(ev)
			fl.Flush()
		}
	}
}

// Shutdown drains the server gracefully: no new submissions, no new spec
// dispatch, in-flight specs finish and checkpoint, queued jobs move to
// checkpointed. It blocks until every job goroutine has returned, then
// closes the HTTP listener (if Start was used). Safe to call twice.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drain)
	}
	s.mu.Unlock()
	s.wg.Wait()
	_ = s.Close()
}

// Start listens on addr and serves the job API (plus the monitor) in a
// background goroutine, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.ln != nil {
		return "", errors.New("serve: already started on " + s.ln.Addr().String())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: s.Handler()}
	s.ln, s.hs = ln, hs
	// Serve on the local: a Close racing this goroutine clears s.hs.
	go func() { _ = hs.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the HTTP listener without draining jobs (Shutdown is the
// graceful path).
func (s *Server) Close() error {
	s.httpMu.Lock()
	ln, hs := s.ln, s.hs
	s.ln, s.hs = nil, nil
	s.httpMu.Unlock()
	if hs == nil {
		return nil
	}
	err := hs.Close()
	// hs.Close closes only the listeners Serve has begun to track; one
	// whose serving goroutine has not run yet would stay bound until it
	// does. Closing ln here frees the address before Close returns.
	_ = ln.Close()
	return err
}
