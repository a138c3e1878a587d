package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"cityhunter"
	"cityhunter/internal/promlint"
)

// TestRunMetricsAndTrace drives the acceptance path: one invocation with
// -metrics -trace-out must print a metrics dump covering the sim, medium,
// and engine layers, and write parseable Chrome trace-event JSON with the
// client, scan, and attacker span categories.
func TestRunMetricsAndTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "run.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{"-minutes", "2", "-seed", "7", "-metrics", "-trace-out", traceFile}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	text := out.String()
	for _, want := range []string{
		"--- metrics ---",
		"sim_events_executed",
		"sim_queue_depth_hwm",
		"medium_frames_sent{subtype=probe-request}",
		"medium_frames_delivered{subtype=probe-response}",
		"core_broadcast_replies",
		"core_batch_size histogram",
		"attack_probe_responses_sent",
		"scenario_virtual_seconds 120",
		"--- flight recorder:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, text)
		}
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	cats := make(map[string]int)
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" || e.Ph == "i" {
			cats[e.Cat]++
			if e.PID != 1 || e.TID == 0 {
				t.Errorf("event %s has pid=%d tid=%d, want pid=1 tid>0", e.Name, e.PID, e.TID)
			}
		}
	}
	for _, cat := range []string{"client", "scan", "attacker"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q events (cats: %v)", cat, cats)
		}
	}
}

// TestRunDeterministicMetrics runs the same seed twice and requires
// byte-identical output — the determinism guarantee the metrics layer
// makes for reproducing paper figures.
func TestRunDeterministicMetrics(t *testing.T) {
	invoke := func() string {
		var out bytes.Buffer
		if err := run(context.Background(), []string{"-minutes", "2", "-seed", "3", "-metrics"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	a, b := invoke(), invoke()
	if a != b {
		t.Errorf("same-seed runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// writePlan saves p as a plan envelope file and returns its path.
func writePlan(t *testing.T, p cityhunter.Plan) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), string(p.Kind)+".plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = cityhunter.SavePlan(f, p)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("save plan: %v", err)
	}
	return path
}

// writeDeploymentPlan saves dcfg as a deployment plan envelope file.
func writeDeploymentPlan(t *testing.T, dcfg cityhunter.DeploymentConfig) string {
	t.Helper()
	return writePlan(t, cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &dcfg})
}

// TestRunVenuePlan drives -plan with a venue plan: it runs the single-run
// path, and a plan carrying the built-in canteen prints exactly what
// -venue canteen prints.
func TestRunVenuePlan(t *testing.T) {
	venue := cityhunter.CanteenVenue()
	path := writePlan(t, cityhunter.Plan{Kind: cityhunter.KindVenue, Venue: &venue})
	invoke := func(args ...string) string {
		var out bytes.Buffer
		if err := run(context.Background(), append(args, "-minutes", "2", "-seed", "3"), &out); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return out.String()
	}
	fromPlan := invoke("-plan", path)
	if !strings.Contains(fromPlan, "at the canteen") {
		t.Errorf("venue plan output does not name the canteen:\n%s", fromPlan)
	}
	if byName := invoke("-venue", "canteen"); byName != fromPlan {
		t.Errorf("-plan output differs from -venue canteen:\n--- plan ---\n%s\n--- by name ---\n%s", fromPlan, byName)
	}
}

// TestRunRejectsUnreadFlags: a flag set on the command line that the
// chosen kind of run never reads fails before anything runs, naming the
// flag and the kind, instead of being silently dropped.
func TestRunRejectsUnreadFlags(t *testing.T) {
	venue := cityhunter.CanteenVenue()
	venuePlan := writePlan(t, cityhunter.Plan{Kind: cityhunter.KindVenue, Venue: &venue})
	deployment := writeDeploymentPlan(t, cityhunter.DeploymentConfig{
		Sites: []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
	})
	campaign := filepath.Join(t.TempDir(), "campaign.json")
	spec := `{"version": 1, "kind": "campaign", "campaign": {"runs": [{"venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 2}]}}`
	if err := os.WriteFile(campaign, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		args []string
		want string
	}{
		{[]string{"-plan", campaign, "-attack", "mana", "-minutes", "5"}, "-attack does not apply to a campaign plan"},
		{[]string{"-plan", campaign, "-minutes", "5"}, "-minutes does not apply to a campaign plan"},
		{[]string{"-plan", campaign, "-population", "100"}, "-population does not apply to a campaign plan"},
		{[]string{"-plan", deployment, "-pcap", "x.pcap"}, "-pcap does not apply to a deployment plan"},
		{[]string{"-plan", deployment, "-trace-out", "run.json"}, "-trace-out does not apply to a deployment plan"},
		{[]string{"-plan", deployment, "-breakdown"}, "-breakdown does not apply to a deployment plan"},
		{[]string{"-plan", deployment, "-metrics"}, "-metrics does not apply to a deployment plan"},
		{[]string{"-plan", deployment, "-sentinel"}, "-sentinel does not apply to a deployment plan"},
		{[]string{"-plan", deployment, "-venue", "mall"}, "-venue does not apply to a deployment plan"},
		{[]string{"-plan", deployment, "-lod-radius", "80"}, "-lod-radius does not apply to a deployment plan"},
		{[]string{"-population", "100", "-metrics"}, "-metrics does not apply to a -population run"},
		{[]string{"-population", "100", "-parallel", "2"}, "-parallel does not apply to a -population run"},
		{[]string{"-plan", venuePlan, "-venue", "mall"}, "-venue does not apply to a venue plan"},
		{[]string{"-plan", venuePlan, "-partitions", "0"}, "-partitions does not apply to a venue plan"},
		{[]string{"-plan", venuePlan, "-population", "100"}, "-population does not apply to a venue plan"},
		{[]string{"-plan", venuePlan, "-population", "100", "-partitions", "0"}, "-partitions does not apply to a venue plan"},
		{[]string{"-plan", venuePlan, "-population", "100", "-lod-radius", "80"}, "-lod-radius does not apply to a venue plan"},
		{[]string{"-parallel", "2"}, "-parallel does not apply to a venue run"},
		{[]string{"-lod-radius", "80"}, "-lod-radius does not apply to a venue run"},
	}
	for _, tc := range tests {
		var out bytes.Buffer
		err := run(context.Background(), tc.args, &out)
		if err == nil || err.Error() != tc.want {
			t.Errorf("run %v: err = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed output before failing:\n%s", tc.args, out.String())
		}
	}
}

// TestRunCampaignFile drives -plan with a campaign plan: rows print in
// spec order with the aggregate line, and output is identical at any
// -parallel.
func TestRunCampaignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	spec := `{"version": 1, "kind": "campaign", "campaign": {"runs": [
		{"name": "lunch", "venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 2, "arrivalScale": 0.4},
		{"name": "rush", "venue": "passage", "attack": "mana", "slot": 0, "minutes": 2, "arrivalScale": 0.4}
	]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	invoke := func(parallel string) string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-seed", "3", "-parallel", parallel}, &out)
		if err != nil {
			t.Fatalf("run -parallel %s: %v", parallel, err)
		}
		return out.String()
	}
	serial := invoke("1")
	for _, want := range []string{"2 runs, 2 completed", "lunch", "rush", "pooled 95% CI"} {
		if !strings.Contains(serial, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, serial)
		}
	}
	if i, j := strings.Index(serial, "lunch"), strings.Index(serial, "rush"); i > j {
		t.Error("rows not in spec order")
	}
	if parallel := invoke("2"); parallel != serial {
		t.Errorf("-parallel 2 output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestRunDeploymentFile drives -plan with a deployment plan: a two-site
// plan prints the header with the knowledge plane, one row per site, and
// the pooled tally, and the same seed reproduces byte-identical output.
func TestRunDeploymentFile(t *testing.T) {
	path := writeDeploymentPlan(t, cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.PassageVenue()},
		Knowledge:    cityhunter.Shared,
		RoamFraction: 0.5,
	})

	invoke := func() string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-attack", "cityhunter", "-minutes", "2", "-seed", "3"}, &out)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	text := invoke()
	for _, want := range []string{"2 sites", "shared knowledge plane", "canteen", "passage", "pooled:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, text)
		}
	}
	if again := invoke(); again != text {
		t.Errorf("same-seed deployment runs diverged:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}

	// A broken plan surfaces the load error before any simulation starts.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"kind":"deployment","deployment":{"knowledge":"telepathy","sites":[]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-plan", bad}, &out); err == nil ||
		!strings.Contains(err.Error(), "telepathy") {
		t.Fatalf("err = %v, want unknown-knowledge-plane complaint", err)
	}
}

// TestRunDeploymentPopulation drives the level-of-detail flags: -population
// adds the far-field tier to a deployment-plan run and the output reports
// promoted-client accounting; without a deployment plan it hunts the
// default city-scale trio.
func TestRunDeploymentPopulation(t *testing.T) {
	path := writeDeploymentPlan(t, cityhunter.DeploymentConfig{
		Sites: []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
	})

	invoke := func() string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-plan", path, "-attack", "cityhunter", "-minutes", "20",
				"-seed", "3", "-population", "2000", "-lod-radius", "80"}, &out)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	text := invoke()
	for _, want := range []string{"far field: 2000 pedestrians", "promotions", "site canteen:", "site railway station:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, text)
		}
	}
	if again := invoke(); again != text {
		t.Errorf("same-seed far-field runs diverged:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}

	// -population with no deployment plan hunts the default city-scale
	// trio instead of erroring.
	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-population", "100", "-minutes", "5"}, &out); err != nil {
		t.Fatalf("default city-scale run: %v", err)
	}
	for _, want := range []string{"city-scale deployment: 3 sites", "far field: 100 pedestrians"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("city-scale output missing %q\n--- output ---\n%s", want, out.String())
		}
	}
}

// TestMonitorExpositionLints runs the city-scale deployment with -monitor
// on an ephemeral port, then reads the monitor's /metrics page: the event
// engine's, the medium's and each site's attacker engine's series are
// there, stamped with their run and site labels, and the page must be
// valid Prometheus text exposition.
func TestMonitorExpositionLints(t *testing.T) {
	const addr = "127.0.0.1:0"
	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-population", "200", "-minutes", "3", "-monitor", addr}, &out); err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	mon, bound, err := cityhunter.SharedMonitor(addr) // the run's own server
	if err != nil {
		t.Fatal(err)
	}
	if mon.Addr() != bound {
		t.Fatalf("monitor bound at %s, reports %s", bound, mon.Addr())
	}
	resp, err := http.Get("http://" + bound + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	for _, want := range []string{"sim_events_executed{", "medium_frames_sent{", "core_hits{", `site="`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	probs, err := promlint.Lint(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		t.Errorf("exposition lint: %s", p)
	}
}

// TestRunDeploymentPartitions drives the -partitions flag, which takes
// DeploymentConfig.Partitions' meaning: -1 runs one goroutine per site
// group, 0 one goroutine, 2 at most two, and leaving it unset keeps the
// plan's setting. All four produce identical output (partition-count
// invariance through the CLI), an invalid count fails before any
// simulation starts, and a shared knowledge plane runs partitioned.
func TestRunDeploymentPartitions(t *testing.T) {
	plan := cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
		RoamFraction: 0.5,
	}
	path := writeDeploymentPlan(t, plan)

	invoke := func(extra ...string) string {
		var out bytes.Buffer
		err := run(context.Background(),
			append([]string{"-plan", path, "-attack", "cityhunter", "-minutes", "10", "-seed", "3"}, extra...), &out)
		if err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		return out.String()
	}
	auto := invoke("-partitions", "-1")
	for _, want := range []string{"2 sites", "canteen", "railway station", "pooled:"} {
		if !strings.Contains(auto, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, auto)
		}
	}
	if again := invoke("-partitions", "-1"); again != auto {
		t.Errorf("same-seed partitioned runs diverged:\n--- first ---\n%s\n--- second ---\n%s", auto, again)
	}
	for _, extra := range [][]string{{"-partitions", "0"}, {"-partitions", "2"}, nil} {
		if got := invoke(extra...); got != auto {
			t.Errorf("%v diverged from -partitions -1:\n--- -1 ---\n%s\n--- %v ---\n%s", extra, auto, extra, got)
		}
	}

	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-plan", path, "-partitions", "-2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "partition count -2 invalid") {
		t.Fatalf("err = %v, want invalid-partitions complaint", err)
	}

	// A shared knowledge plane puts both sites in one group; it runs at
	// any partition count.
	plan.Knowledge = cityhunter.Shared
	shared := writeDeploymentPlan(t, plan)
	out.Reset()
	if err := run(context.Background(),
		[]string{"-plan", shared, "-partitions", "0", "-minutes", "2"}, &out); err != nil {
		t.Fatalf("shared plane at -partitions 0: %v", err)
	}
	if !strings.Contains(out.String(), "shared knowledge plane") {
		t.Errorf("shared-plane output missing its plane\n--- output ---\n%s", out.String())
	}
}

// TestRunCampaignFileBadSpec: load errors surface with the offending run
// named, before any simulation starts.
func TestRunCampaignFileBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	spec := `{"version": 1, "kind": "campaign", "campaign": {"runs": [{"name": "x", "venue": "casino", "attack": "karma", "slot": 0, "minutes": 5}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-plan", path}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown venue "casino"`) {
		t.Fatalf("err = %v, want unknown-venue complaint", err)
	}
}

// TestRunCancelled: every kind of run honours cancellation. A venue run
// stops with the context's error, and a campaign cancelled before any run
// started still prints its rows, each marked as not run.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-minutes", "2"}, &out); !errors.Is(err, context.Canceled) {
		t.Errorf("venue run: err = %v, want context.Canceled", err)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	spec := `{"version": 1, "kind": "campaign", "campaign": {"runs": [{"name": "lunch", "venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 2}]}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(ctx, []string{"-plan", path}, &out); !errors.Is(err, context.Canceled) {
		t.Errorf("campaign run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(out.String(), "1 runs, 0 completed") || !strings.Contains(out.String(), "not run") {
		t.Errorf("cancelled campaign output:\n%s", out.String())
	}
}

// TestRunProfileFlags drives the pprof wiring: -cpuprofile and -memprofile
// must produce non-empty profile files, and an unwritable profile path must
// surface as an error before the simulation starts.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-minutes", "1", "-seed", "7",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}

	err = run(context.Background(), []string{
		"-minutes", "1",
		"-cpuprofile", filepath.Join(dir, "no-such-dir", "cpu.pprof"),
	}, &out)
	if err == nil {
		t.Error("unwritable -cpuprofile path accepted")
	}
}

// TestCLIAndServerAgree runs the same venue, deployment and campaign plans
// through the CLI and through the job server with the same seed, attack,
// slot and minutes: both take their specs from plan.RunSpecs, so every
// tally the CLI prints — per spec, and per site then pooled for a
// deployment — must equal the server result's.
func TestCLIAndServerAgree(t *testing.T) {
	srv, err := cityhunter.NewCampaignServer(cityhunter.CampaignServerConfig{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Shutdown()
	}()

	venue := cityhunter.PassageVenue()
	campaignPlan := cityhunter.Plan{Kind: cityhunter.KindCampaign, Specs: []cityhunter.RunSpec{
		{Name: "lunch", Venue: cityhunter.CanteenVenue(), Attack: cityhunter.CityHunter, Slot: 4, Duration: 2 * time.Minute},
		{Name: "rush", Venue: cityhunter.PassageVenue(), Attack: cityhunter.MANA, Slot: 0, Duration: 2 * time.Minute},
	}}
	tests := []struct {
		name string
		plan cityhunter.Plan
		run  bool // the plan takes -attack/-slot/-minutes
	}{
		{"venue", cityhunter.Plan{Kind: cityhunter.KindVenue, Venue: &venue}, true},
		{"deployment", cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &cityhunter.DeploymentConfig{
			Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.PassageVenue()},
			Knowledge:    cityhunter.Shared,
			RoamFraction: 0.5,
		}}, true},
		{"campaign", campaignPlan, false},
	}
	tallyLine := regexp.MustCompile(`clients=.*`)
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			args := []string{"-plan", writePlan(t, tc.plan), "-seed", "3"}
			body := `"seed": 3`
			if tc.run {
				args = append(args, "-attack", "prelim", "-slot", "4", "-minutes", "5")
				body += `, "attack": "prelim", "slot": 4, "minutes": 5`
			}
			var out bytes.Buffer
			if err := run(context.Background(), args, &out); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
			cli := tallyLine.FindAllString(out.String(), -1)

			envelope, err := cityhunter.EncodePlan(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			res := serverResult(t, hs.URL, fmt.Sprintf(`{"plan": %s, %s}`, envelope, body))
			var server []string
			for _, s := range res.Specs {
				for _, site := range s.Sites {
					server = append(server, site.Tally.String())
				}
				server = append(server, s.Tally.String())
			}
			if !slices.Equal(cli, server) {
				t.Errorf("tallies differ\n--- CLI ---\n%s\n--- server ---\n%s",
					strings.Join(cli, "\n"), strings.Join(server, "\n"))
			}
		})
	}
}

// serverResult submits body to the job server at base, waits for the job
// to finish and returns its result document.
func serverResult(t *testing.T, base, body string) cityhunter.JobResult {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st cityhunter.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(time.Minute); st.State != "finished"; time.Sleep(20 * time.Millisecond) {
		if st.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job %s: state %s %s", st.ID, st.State, st.Error)
		}
		resp, err := http.Get(base + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(base + "/api/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res cityhunter.JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}
