// End-to-end lifecycle tests for the campaign job server, driven through
// the public cityhunter API and real HTTP — the same path
// cmd/cityhunter-server serves. The shared world is built once; every
// server under test gets a BaseConfig closure over it, so a test run pays
// world generation exactly once.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cityhunter"
	"cityhunter/internal/serve"
)

var (
	worldOnce sync.Once
	worldVal  *cityhunter.World
	worldErr  error
)

func testWorld(t testing.TB) *cityhunter.World {
	t.Helper()
	worldOnce.Do(func() {
		worldVal, worldErr = cityhunter.NewWorld(cityhunter.WithSeed(1))
	})
	if worldErr != nil {
		t.Fatalf("NewWorld: %v", worldErr)
	}
	return worldVal
}

// newServer boots a job server on an ephemeral port with its store in
// storeDir, returning the server and its base URL.
func newServer(t *testing.T, storeDir string) (*serve.Server, string) {
	t.Helper()
	w := testWorld(t)
	srv, err := cityhunter.NewCampaignServer(cityhunter.CampaignServerConfig{
		StoreDir: storeDir,
		Workers:  1,
		MaxJobs:  2,
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
		t.Fatalf("NewCampaignServer: %v", err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, "http://" + addr
}

// testPlanJSON renders a campaign plan of n short mixed-venue specs as an
// envelope document.
func testPlanJSON(t *testing.T, n int, minutes int) []byte {
	t.Helper()
	scale := 0.4
	specs := make([]cityhunter.RunSpec, n)
	for i := range specs {
		venue := cityhunter.CanteenVenue()
		slot := cityhunter.LunchSlot
		if i%2 == 1 {
			venue = cityhunter.PassageVenue()
			slot = cityhunter.MorningRushSlot
		}
		specs[i] = cityhunter.RunSpec{
			Name:         fmt.Sprintf("quick %d", i),
			Venue:        venue,
			Attack:       cityhunter.CityHunter,
			Slot:         slot,
			Duration:     time.Duration(minutes) * time.Minute,
			ArrivalScale: &scale,
		}
	}
	var buf bytes.Buffer
	if err := cityhunter.SavePlan(&buf, cityhunter.Plan{Kind: cityhunter.KindCampaign, Specs: specs}); err != nil {
		t.Fatalf("SavePlan: %v", err)
	}
	return buf.Bytes()
}

// submit POSTs a plan and decodes the JobStatus response, asserting the
// status code.
func submit(t *testing.T, base string, body string, wantCode int) cityhunter.JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /api/v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /api/v1/jobs = %d, want %d; body: %s", resp.StatusCode, wantCode, data)
	}
	var st cityhunter.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decode job status: %v; body: %s", err, data)
	}
	return st
}

func getStatus(t *testing.T, base, id string) cityhunter.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var st cityhunter.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return st
}

// pollUntil polls the job until cond holds, failing the test at the
// deadline.
func pollUntil(t *testing.T, base, id string, what string, cond func(cityhunter.JobStatus) bool) cityhunter.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, base, id)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last status: %+v", what, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(st cityhunter.JobStatus) bool {
	switch st.State {
	case serve.StateFinished, serve.StateFailed, serve.StateCancelled, serve.StateCheckpointed:
		return true
	}
	return false
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// TestServerLifecycle: submit → poll → complete → result, then duplicate
// submission is an instant cache hit with every spec served from the
// store.
func TestServerLifecycle(t *testing.T) {
	_, base := newServer(t, t.TempDir())
	plan := testPlanJSON(t, 4, 2)
	body := fmt.Sprintf(`{"plan": %s, "seed": 7, "label": "lifecycle"}`, plan)

	st := submit(t, base, body, http.StatusAccepted)
	if st.State != serve.StateQueued && st.State != serve.StateRunning {
		t.Fatalf("fresh job state = %q", st.State)
	}
	if st.SpecsTotal != 4 || st.Seed != 7 || st.Kind != "campaign" {
		t.Fatalf("job identity wrong: %+v", st)
	}

	done := pollUntil(t, base, st.ID, "job completion", terminal)
	if done.State != serve.StateFinished {
		t.Fatalf("job ended %q (error %q), want finished", done.State, done.Error)
	}
	if done.SpecsRun != 4 || done.SpecsCached != 0 || done.SpecsDone != 4 {
		t.Errorf("spec counters: %+v", done)
	}
	if done.Started == nil || done.Finished == nil {
		t.Errorf("timestamps missing: %+v", done)
	}

	code, data := getBody(t, base+"/api/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, data)
	}
	var res cityhunter.JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Hash != st.Hash || res.Seed != 7 || len(res.Specs) != 4 {
		t.Errorf("result identity: hash=%q seed=%d specs=%d", res.Hash, res.Seed, len(res.Specs))
	}
	if res.Aggregate.Runs != 4 || res.Aggregate.TotalClients == 0 {
		t.Errorf("degenerate aggregate: %+v", res.Aggregate)
	}
	for i, sr := range res.Specs {
		if sr.Index != i || sr.Tally.Total == 0 {
			t.Errorf("spec %d degenerate: %+v", i, sr)
		}
	}

	// The list endpoint shows the job.
	code, data = getBody(t, base+"/api/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(data), st.ID) {
		t.Errorf("GET /api/v1/jobs = %d, missing %s: %s", code, st.ID, data)
	}

	// Identical resubmission: 200 (not 202), same hash, instantly
	// finished, every spec served from the store.
	dup := submit(t, base, body, http.StatusOK)
	if dup.Hash != st.Hash {
		t.Errorf("duplicate hash %q != %q", dup.Hash, st.Hash)
	}
	if dup.State != serve.StateFinished || dup.SpecsCached != 4 || dup.SpecsRun != 0 {
		t.Errorf("duplicate not a cache hit: %+v", dup)
	}
	if dup.ID == st.ID {
		t.Errorf("cache hit should be a new job entry, got the original %s", dup.ID)
	}

	// The terminal job's SSE stream replays the full event log and ends.
	code, data = getBody(t, base+"/api/v1/jobs/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET events = %d", code)
	}
	for _, want := range []string{"event: queued", "event: started", "event: spec-done", "event: finished"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("event stream missing %q:\n%s", want, data)
		}
	}

	// The merged exposition carries both the server's job counters and the
	// runs' metrics labelled with the job id.
	code, data = getBody(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{"server_jobs_finished", "server_specs_run", `job="` + st.ID + `"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerCancelResume is the resume acceptance test: cancel a campaign
// mid-run, resubmit the identical plan, and the final result must be
// byte-identical to an uninterrupted run on a fresh server — with the
// first run's completed specs served from the store, visible in the
// spec-run counters.
func TestServerCancelResume(t *testing.T) {
	_, base := newServer(t, t.TempDir())
	plan := testPlanJSON(t, 8, 6)
	body := fmt.Sprintf(`{"plan": %s, "seed": 5}`, plan)

	st := submit(t, base, body, http.StatusAccepted)
	mid := pollUntil(t, base, st.ID, "first spec to finish", func(s cityhunter.JobStatus) bool {
		return s.SpecsDone >= 1 || terminal(s)
	})
	if terminal(mid) {
		t.Fatalf("job reached %q before it could be cancelled — specs too fast for the test window", mid.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()

	cancelled := pollUntil(t, base, st.ID, "cancellation", terminal)
	if cancelled.State != serve.StateCancelled {
		t.Fatalf("job ended %q, want cancelled", cancelled.State)
	}
	if cancelled.SpecsRun == 0 || cancelled.SpecsRun >= 8 {
		t.Fatalf("cancel window missed: %d/8 specs ran", cancelled.SpecsRun)
	}
	checkpointed := cancelled.SpecsRun

	// Resume: same plan, same server. The completed specs come from the
	// store; only the rest run.
	resumed := submit(t, base, body, http.StatusAccepted)
	if resumed.Hash != st.Hash {
		t.Fatalf("resume hash %q != %q", resumed.Hash, st.Hash)
	}
	final := pollUntil(t, base, resumed.ID, "resumed completion", terminal)
	if final.State != serve.StateFinished {
		t.Fatalf("resumed job ended %q (error %q)", final.State, final.Error)
	}
	if final.SpecsCached != checkpointed {
		t.Errorf("resumed job cached %d specs, want the %d checkpointed before cancel",
			final.SpecsCached, checkpointed)
	}
	if final.SpecsRun != 8-checkpointed {
		t.Errorf("resumed job ran %d specs, want %d", final.SpecsRun, 8-checkpointed)
	}
	code, resumedResult := getBody(t, base+"/api/v1/jobs/"+resumed.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET resumed result = %d", code)
	}

	// Reference: the same plan uninterrupted on a fresh server and store.
	_, refBase := newServer(t, t.TempDir())
	ref := submit(t, refBase, body, http.StatusAccepted)
	refDone := pollUntil(t, refBase, ref.ID, "reference completion", terminal)
	if refDone.State != serve.StateFinished {
		t.Fatalf("reference job ended %q (error %q)", refDone.State, refDone.Error)
	}
	if refDone.SpecsRun != 8 || refDone.SpecsCached != 0 {
		t.Fatalf("reference ran from a dirty store: %+v", refDone)
	}
	code, refResult := getBody(t, refBase+"/api/v1/jobs/"+ref.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET reference result = %d", code)
	}

	if !bytes.Equal(resumedResult, refResult) {
		t.Errorf("resumed result is not byte-identical to the uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s",
			resumedResult, refResult)
	}
}

// TestServerDrainCheckpoints: an in-process Shutdown (the SIGTERM path of
// cmd/cityhunter-server) finishes the in-flight spec, checkpoints the
// rest, and a new server over the same store resumes.
func TestServerDrainCheckpoints(t *testing.T) {
	storeDir := t.TempDir()
	srv, base := newServer(t, storeDir)
	plan := testPlanJSON(t, 8, 6)
	body := fmt.Sprintf(`{"plan": %s, "seed": 9}`, plan)

	st := submit(t, base, body, http.StatusAccepted)
	mid := pollUntil(t, base, st.ID, "first spec to finish", func(s cityhunter.JobStatus) bool {
		return s.SpecsDone >= 1 || terminal(s)
	})
	if terminal(mid) {
		t.Fatalf("job reached %q before drain — specs too fast for the test window", mid.State)
	}

	srv.Shutdown() // blocks until the in-flight spec finishes and checkpoints

	// The server's job map is still readable in-process.
	final := getStatusFromServer(t, srv, st.ID)
	if final.State != serve.StateCheckpointed {
		t.Fatalf("drained job state %q, want checkpointed", final.State)
	}
	if final.SpecsRun == 0 || final.SpecsRun >= 8 {
		t.Fatalf("drain window missed: %d/8 specs ran", final.SpecsRun)
	}

	// A fresh server over the same store resumes from the checkpoints.
	_, base2 := newServer(t, storeDir)
	resumed := submit(t, base2, body, http.StatusAccepted)
	done := pollUntil(t, base2, resumed.ID, "resumed completion", terminal)
	if done.State != serve.StateFinished {
		t.Fatalf("resumed job ended %q (error %q)", done.State, done.Error)
	}
	if done.SpecsCached != final.SpecsRun || done.SpecsRun != 8-final.SpecsRun {
		t.Errorf("resume counters: cached %d run %d, want cached %d run %d",
			done.SpecsCached, done.SpecsRun, final.SpecsRun, 8-final.SpecsRun)
	}
}

// getStatusFromServer reads a job's status through the handler directly —
// used after Shutdown has closed the listener.
func getStatusFromServer(t *testing.T, srv *serve.Server, id string) cityhunter.JobStatus {
	t.Helper()
	rec := newRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/api/v1/jobs/"+id, nil)
	srv.Handler().ServeHTTP(rec, req)
	if rec.code != http.StatusOK {
		t.Fatalf("in-process GET job = %d: %s", rec.code, rec.body.String())
	}
	var st cityhunter.JobStatus
	if err := json.Unmarshal(rec.body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// recorder is a minimal ResponseWriter (httptest is fine too; this keeps
// the dependency surface identical to production code).
type recorder struct {
	code   int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder                    { return &recorder{code: http.StatusOK, header: http.Header{}} }
func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// TestServerValidation covers the structured-400 surface and the hardened
// method/body handling.
func TestServerValidation(t *testing.T) {
	_, base := newServer(t, t.TempDir())

	post := func(body string) (int, string) {
		resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	venuePayload := `{"kind":"canteen","name":"x","radioRange":50,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}`

	cases := []struct {
		label     string
		body      string
		wantCode  int
		wantError string
		wantField string
	}{
		{"missing plan", `{"seed": 1}`, 400, "needs a plan envelope", "plan"},
		{"unknown submission field", `{"plan": {"version":1,"kind":"venue","venue":` + venuePayload + `}, "turbo": 1}`, 400, `"turbo"`, ""},
		{"unversioned plan", `{"plan": {"kind":"venue","venue":` + venuePayload + `}}`, 400, "unsupported version 0", ""},
		{"unknown plan field", `{"plan": {"version":1,"kind":"venue","venue":` + venuePayload + `,"extra":1}}`, 400, `"extra"`, ""},
		{"bad venue payload", `{"plan": {"version":1,"kind":"venue","venue":{"kind":"canteen","name":"x","radioRange":-1,"arrivalsPerMinute":[1],"staticDwell":{"medianMinutes":5,"sigma":0.5,"maxMinutes":20}}}}`, 400, "radio range -1 must be positive", "radioRange"},
		{"unknown attack", `{"plan": {"version":1,"kind":"venue","venue":` + venuePayload + `}, "attack": "wep-crack"}`, 400, `unknown attack "wep-crack"`, "attack"},
		{"campaign with attack param", `{"plan": {"version":1,"kind":"campaign","campaign":{"runs":[{"venue":"mall","attack":"karma","slot":0,"minutes":5}]}}, "attack": "karma"}`, 400, "per run", "attack"},
		{"bad slot", `{"plan": {"version":1,"kind":"venue","venue":` + venuePayload + `}, "slot": 99}`, 400, "slot 99", "slot"},
	}
	for _, tc := range cases {
		code, body := post(tc.body)
		if code != tc.wantCode {
			t.Errorf("%s: code %d, want %d (%s)", tc.label, code, tc.wantCode, body)
			continue
		}
		var ae struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal([]byte(body), &ae); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.label, body)
			continue
		}
		if !strings.Contains(ae.Error, tc.wantError) {
			t.Errorf("%s: error %q does not contain %q", tc.label, ae.Error, tc.wantError)
		}
		if tc.wantField != "" && ae.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.label, ae.Field, tc.wantField)
		}
	}

	// Oversized body → 413.
	code, body := post(`{"pad": "` + strings.Repeat("x", 2<<20) + `"}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: code %d, want 413 (%s)", code, body)
	}

	// Unknown job → 404.
	if code, _ := getBody(t, base+"/api/v1/jobs/job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job: code %d, want 404", code)
	}

	// Write methods on read-only endpoints → 405.
	for _, path := range []string{"/metrics", "/runs", "/events", "/"} {
		resp, err := http.Post(base+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow == "" {
			t.Errorf("POST %s: no Allow header", path)
		}
	}

	// DELETE on the collection → 405.
	req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/jobs", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /api/v1/jobs = %d, want 405", resp.StatusCode)
	}

	// JSON endpoints declare their content type.
	resp, err = http.Get(base + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("GET /api/v1/jobs content type %q", ct)
	}
}

// TestServerPartitionsCacheHit: a deployment's partition count changes
// wall time only, so it stays out of the content hash — a plan differing
// only in partitions is served from the store — and a shared knowledge
// plane runs at any partition count.
func TestServerPartitionsCacheHit(t *testing.T) {
	_, base := newServer(t, t.TempDir())
	planBody := func(dcfg cityhunter.DeploymentConfig) string {
		var buf bytes.Buffer
		if err := cityhunter.SavePlan(&buf, cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &dcfg}); err != nil {
			t.Fatalf("SavePlan: %v", err)
		}
		return buf.String()
	}
	dcfg := cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
		RoamFraction: 0.5,
	}
	body := fmt.Sprintf(`{"plan": %s, "seed": 3, "minutes": 5}`, planBody(dcfg))
	st := submit(t, base, body, http.StatusAccepted)
	final := pollUntil(t, base, st.ID, "deployment job to finish", terminal)
	if final.State != serve.StateFinished {
		t.Fatalf("job state %v (%s), want finished", final.State, final.Error)
	}

	explicit := dcfg
	explicit.Partitions = cityhunter.AutoPartitions
	again := submit(t, base, fmt.Sprintf(`{"plan": %s, "seed": 3, "minutes": 5}`, planBody(explicit)), http.StatusOK)
	if again.Hash != final.Hash {
		t.Errorf("partitions=auto submission hashed to %s, want %s (partitions must not enter the hash)",
			again.Hash, final.Hash)
	}
	done := pollUntil(t, base, again.ID, "cache-hit job to finish", terminal)
	if done.State != serve.StateFinished || done.SpecsCached != done.SpecsTotal {
		t.Errorf("cache-hit job: state %v, %d/%d specs cached; want all served from the store",
			done.State, done.SpecsCached, done.SpecsTotal)
	}

	shared := explicit
	shared.Knowledge = cityhunter.Shared
	st = submit(t, base, fmt.Sprintf(`{"plan": %s, "seed": 3, "minutes": 2}`, planBody(shared)), http.StatusAccepted)
	if final := pollUntil(t, base, st.ID, "shared-plane job to finish", terminal); final.State != serve.StateFinished {
		t.Errorf("shared plane at partitions=auto: state %v (%s), want finished", final.State, final.Error)
	}
}

// TestServerStartClose: Close racing the serving goroutine Start spawned
// must neither panic nor race (run under -race).
func TestServerStartClose(t *testing.T) {
	for i := 0; i < 50; i++ {
		srv, err := serve.New(serve.Config{
			StoreDir:   t.TempDir(),
			BaseConfig: func(int64) (cityhunter.RunConfig, error) { return cityhunter.RunConfig{}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestServerGoroutineLeak: a full submit→finish→shutdown cycle must not
// leak goroutines.
func TestServerGoroutineLeak(t *testing.T) {
	testWorld(t) // build the world before counting
	before := runtime.NumGoroutine()

	srv, base := newServer(t, t.TempDir())
	st := submit(t, base, fmt.Sprintf(`{"plan": %s}`, testPlanJSON(t, 2, 2)), http.StatusAccepted)
	done := pollUntil(t, base, st.ID, "completion", terminal)
	if done.State != serve.StateFinished {
		t.Fatalf("job ended %q", done.State)
	}
	srv.Shutdown()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before %d, after %d", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
