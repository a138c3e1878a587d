package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cityhunter"
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

// TestRunCampaignFile drives the -campaign-file path: rows print in spec
// order with the aggregate line, and output is identical at any -parallel.
func TestRunCampaignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	spec := `{"runs": [
		{"name": "lunch", "venue": "canteen", "attack": "cityhunter", "slot": 4, "minutes": 2, "arrivalScale": 0.4},
		{"name": "rush", "venue": "passage", "attack": "mana", "slot": 0, "minutes": 2, "arrivalScale": 0.4}
	]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	invoke := func(parallel string) string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-campaign-file", path, "-seed", "3", "-parallel", parallel}, &out)
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

// TestRunDeploymentFile drives the -deployment path: a two-site plan prints
// the header with the knowledge plane, one row per site, and the pooled
// tally, and the same seed reproduces byte-identical output.
func TestRunDeploymentFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	plan := cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.PassageVenue()},
		Knowledge:    cityhunter.Shared,
		RoamFraction: 0.5,
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = cityhunter.SaveDeployment(f, plan)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("save plan: %v", err)
	}

	invoke := func() string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-deployment", path, "-attack", "cityhunter", "-minutes", "2", "-seed", "3"}, &out)
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
	if err := os.WriteFile(bad, []byte(`{"knowledge":"telepathy","sites":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-deployment", bad}, &out); err == nil ||
		!strings.Contains(err.Error(), "telepathy") {
		t.Fatalf("err = %v, want unknown-knowledge-plane complaint", err)
	}
}

// TestRunDeploymentPopulation drives the level-of-detail flags: -population
// adds the far-field tier to a -deployment run and the output reports
// promoted-client accounting; without a deployment the flag is refused.
func TestRunDeploymentPopulation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	plan := cityhunter.DeploymentConfig{
		Sites: []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = cityhunter.SaveDeployment(f, plan)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("save plan: %v", err)
	}

	invoke := func() string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-deployment", path, "-attack", "cityhunter", "-minutes", "20",
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

	// -population with no -deployment plan hunts the default city-scale
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

// TestRunDeploymentPartitions drives the -partitions flag: 0 runs one
// goroutine per site group, an explicit count and the plan's own setting
// produce identical output (partition-count invariance through the CLI),
// an invalid count fails before any simulation starts, and a shared
// knowledge plane runs partitioned.
func TestRunDeploymentPartitions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	plan := cityhunter.DeploymentConfig{
		Sites:        []cityhunter.Venue{cityhunter.CanteenVenue(), cityhunter.StationVenue()},
		RoamFraction: 0.5,
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	err = cityhunter.SaveDeployment(f, plan)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("save plan: %v", err)
	}

	invoke := func(parts string) string {
		var out bytes.Buffer
		err := run(context.Background(),
			[]string{"-deployment", path, "-attack", "cityhunter", "-minutes", "10",
				"-seed", "3", "-partitions", parts}, &out)
		if err != nil {
			t.Fatalf("run -partitions %s: %v", parts, err)
		}
		return out.String()
	}
	auto := invoke("0")
	for _, want := range []string{"2 sites", "canteen", "railway station", "pooled:"} {
		if !strings.Contains(auto, want) {
			t.Errorf("output missing %q\n--- output ---\n%s", want, auto)
		}
	}
	if again := invoke("0"); again != auto {
		t.Errorf("same-seed partitioned runs diverged:\n--- first ---\n%s\n--- second ---\n%s", auto, again)
	}
	if explicit := invoke("2"); explicit != auto {
		t.Errorf("-partitions 2 diverged from -partitions 0:\n--- auto ---\n%s\n--- explicit ---\n%s", auto, explicit)
	}
	if serial := invoke("-1"); serial != auto {
		t.Errorf("-partitions -1 diverged from -partitions 0:\n--- auto ---\n%s\n--- plan's setting ---\n%s", auto, serial)
	}

	var out bytes.Buffer
	if err := run(context.Background(),
		[]string{"-deployment", path, "-partitions", "-2"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-partitions -2 invalid") {
		t.Fatalf("err = %v, want invalid-partitions complaint", err)
	}

	// A shared knowledge plane puts both sites in one group; it runs at
	// any partition count.
	shared := filepath.Join(t.TempDir(), "shared.json")
	splan := plan
	splan.Knowledge = cityhunter.Shared
	sf, err := os.Create(shared)
	if err != nil {
		t.Fatal(err)
	}
	err = cityhunter.SaveDeployment(sf, splan)
	if cerr := sf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("save shared plan: %v", err)
	}
	out.Reset()
	if err := run(context.Background(),
		[]string{"-deployment", shared, "-partitions", "0", "-minutes", "2"}, &out); err != nil {
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
	spec := `{"runs": [{"name": "x", "venue": "casino", "attack": "karma", "slot": 0, "minutes": 5}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run(context.Background(), []string{"-campaign-file", path}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown venue "casino"`) {
		t.Fatalf("err = %v, want unknown-venue complaint", err)
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
