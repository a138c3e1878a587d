// Command cityhunter-sim runs a plan and prints the result — by default
// one attacker at one venue for one hour slot, the way the paper reports a
// single field test.
//
// Usage:
//
//	cityhunter-sim [flags]
//
//	-venue    passage|canteen|mall|station   (default canteen)
//	-attack   karma|mana|prelim|cityhunter|known-beacons (default cityhunter)
//	-slot     hour slot 0..11, 0 = 8am-9am   (default 4 = 12pm-1pm)
//	-minutes  run length                     (default 30)
//	-seed     world seed                     (default 1)
//	-deauth   arm the deauthentication extension
//	-preconnected  fraction of phones arriving connected (default 0)
//	-breakdown     print the Fig.6-style hit breakdown
//	-metrics       print the deterministic metrics dump and journal tail
//	-trace-out F   write a Chrome/Perfetto trace-event JSON file to F
//
// Every run takes one path. The command builds a plan: the -plan envelope
// file (see cityhunter.SavePlan) if given; otherwise a venue plan for
// -venue, or with -population a deployment plan of the default city-scale
// trio (station, canteen, mall) in the dozen-district city. plan.RunSpecs
// turns the plan into campaign specs, the same call the job server
// (cmd/cityhunter-server) makes, so a plan run here and submitted there
// with the same seed, attack, slot and minutes gives the same tallies. The
// run flags are set on those specs, which run over the campaign pool;
// Ctrl-C cancels any run. What prints follows the plan kind:
//
//   - venue: the tally line plus whatever -pcap, -trace-out, -breakdown,
//     -metrics and -sentinel ask for. A venue or deployment run uses the
//     world seed as its run seed.
//   - deployment: one attacker per site on one virtual clock, the per-site
//     rows and the pooled tally. -population adds that many far-field
//     pedestrians (-lod-radius sizes the promotion boundary). -partitions
//     sets DeploymentConfig.Partitions: 0 runs the site groups on one
//     goroutine, -1 on one goroutine per group, N on at most N; left unset
//     it keeps the plan's setting. It changes wall time only, never the
//     output.
//   - campaign: every declared run in spec order, then the aggregate.
//     -seed is the base of the per-run seeds and -parallel the pool size;
//     after Ctrl-C the completed runs are still reported.
//
// A flag set on the command line that the chosen kind of run does not
// read is an error naming the flag and the kind, never silently ignored.
//
// Live monitoring: -monitor ADDR serves read-only telemetry over HTTP for
// the lifetime of the process — Prometheus exposition on /metrics, run
// status JSON on /runs, a live event stream on /events (SSE) and pprof
// under /debug/pprof. Monitoring never perturbs the simulation: results
// are byte-identical with and without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"cityhunter"
	"cityhunter/internal/campaign"
	"cityhunter/internal/plan"
	"cityhunter/internal/prof"
	"cityhunter/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cityhunter-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cityhunter-sim", flag.ContinueOnError)
	var (
		venueName    = fs.String("venue", "canteen", "passage|canteen|mall|station")
		attackName   = fs.String("attack", "cityhunter", "karma|mana|prelim|cityhunter|known-beacons")
		slot         = fs.Int("slot", 4, "hour slot 0..11 (0 = 8am-9am)")
		minutes      = fs.Int("minutes", 30, "run length in minutes")
		seed         = fs.Int64("seed", 1, "world seed")
		deauth       = fs.Bool("deauth", false, "arm the deauthentication extension")
		preconnected = fs.Float64("preconnected", 0, "fraction of phones arriving connected to the venue AP")
		breakdown    = fs.Bool("breakdown", false, "print the hit breakdown (City-Hunter only)")
		pcapPath     = fs.String("pcap", "", "capture every frame at the venue into this pcap file")
		loss         = fs.Float64("loss", 0, "independent frame-loss probability (failure injection)")
		canary       = fs.Float64("canary", 0, "fraction of phones running the canary-probe detector")
		randomizeMAC = fs.Float64("randomize-macs", 0, "fraction of phones rotating their probe MAC per scan")
		sentinel     = fs.Bool("sentinel", false, "deploy the passive evil-twin sentinel and report its findings")
		metrics      = fs.Bool("metrics", false, "print the metrics dump and flight-recorder tail after the run")
		traceOut     = fs.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (open in chrome://tracing)")
		planFile     = fs.String("plan", "", "run the venue, deployment or campaign in this plan envelope file")
		parallel     = fs.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = serial)")
		population   = fs.Int("population", 0, "far-field pedestrians roaming the city in a deployment run (level-of-detail tier)")
		partitions   = fs.Int("partitions", 0, "goroutines running a deployment's site groups: 0 = one, -1 = one per group, N = at most N; unset keeps the plan's setting; changes wall time only")
		lodRadius    = fs.Float64("lod-radius", 0, "promotion boundary radius in metres around each site (0 = 1.25x the largest radio range)")
		cpuProfile   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		monitorAddr  = fs.String("monitor", "", "serve live telemetry on this address while running (/metrics, /runs, /events, /debug/pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var p cityhunter.Plan
	if *planFile != "" {
		f, err := os.Open(*planFile)
		if err != nil {
			return err
		}
		p, err = cityhunter.LoadPlan(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if err := rejectUnreadFlags(fs, p.Kind, *population); err != nil {
		return err
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil {
			fmt.Fprintln(os.Stderr, "cityhunter-sim:", perr)
		}
	}()

	var mon *cityhunter.MonitorServer
	if *monitorAddr != "" {
		var bound string
		mon, bound, err = cityhunter.SharedMonitor(*monitorAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "monitor listening on http://%s — try /metrics, /runs, /events (SSE), /debug/pprof\n", bound)
	}

	// Without -plan, build one: the city-scale trio for -population, else
	// the -venue.
	worldOpts := []cityhunter.WorldOption{cityhunter.WithSeed(*seed)}
	switch {
	case *planFile != "":
	case *population > 0:
		p = cityhunter.Plan{Kind: cityhunter.KindDeployment, Deployment: &cityhunter.DeploymentConfig{
			Sites: []cityhunter.Venue{cityhunter.StationVenue(), cityhunter.CanteenVenue(), cityhunter.MallVenue()},
		}}
		worldOpts = append(worldOpts, cityhunter.WithCityConfig(cityhunter.CityScaleCityConfig(*seed)))
		if *lodRadius == 0 {
			*lodRadius = 80
		}
	default:
		venue, ok := campaign.VenueByName(*venueName)
		if !ok {
			return fmt.Errorf("unknown venue %q (want passage|canteen|mall|station)", *venueName)
		}
		p = cityhunter.Plan{Kind: cityhunter.KindVenue, Venue: &venue}
	}
	// rejectUnreadFlags lets -partitions through for deployments only.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "partitions" {
			p.Deployment.Partitions = *partitions
		}
	})
	prm := plan.Params{Seed: *seed}
	if p.Kind != cityhunter.KindCampaign {
		prm.Attack, prm.Slot, prm.Minutes = *attackName, *slot, float64(*minutes)
	}
	specs, err := plan.RunSpecs(p, prm)
	if err != nil {
		return err
	}
	world, err := cityhunter.NewWorld(worldOpts...)
	if err != nil {
		return err
	}

	var observe []cityhunter.RunOption
	if *pcapPath != "" {
		observe = append(observe, cityhunter.WithTrace())
	}
	if *metrics {
		observe = append(observe, cityhunter.WithMetrics(), cityhunter.WithFlightRecorder(0))
	}
	if *traceOut != "" {
		observe = append(observe, cityhunter.WithPerfettoTrace())
	}
	// The run flags become spec fields. A campaign plan refused them all
	// (rejectUnreadFlags), so its specs run as decoded.
	for i := range specs {
		s := &specs[i]
		s.Deauth = s.Deauth || *deauth
		s.Sentinel = s.Sentinel || *sentinel
		if *preconnected != 0 {
			s.PreconnectedFraction = preconnected
		}
		if *loss != 0 {
			s.FrameLoss = loss
		}
		if *canary != 0 {
			s.CanaryFraction = canary
		}
		if *randomizeMAC != 0 {
			s.RandomizeMACFraction = randomizeMAC
		}
		if len(observe) > 0 {
			s.Configure = func(cfg *cityhunter.RunConfig) { cityhunter.ApplyOptions(cfg, observe...) }
		}
		if *population > 0 {
			d := *s.Deployment
			d.FarField = &cityhunter.FarFieldConfig{
				Pedestrians: *population,
				Radius:      *lodRadius,
				Stops:       world.City.RouteStops(),
			}
			s.Deployment = &d
		}
	}

	pool := cityhunter.CampaignPool{Workers: *parallel}
	if p.Kind == cityhunter.KindCampaign {
		pool.OnProgress = func(p cityhunter.CampaignProgress) {
			status := "done"
			if p.Err != nil {
				status = p.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s: %s\n", p.Done, p.Total, p.Name, status)
		}
	}
	if mon != nil {
		pool.Publisher = mon
		pool.Label = strings.TrimSpace(string(p.Kind) + " " + *planFile)
	}
	outcome, runErr := world.RunCampaign(ctx, specs, pool)
	if p.Kind == cityhunter.KindCampaign && outcome != nil {
		printCampaign(out, *planFile, specs, outcome)
	}
	if runErr != nil || p.Kind == cityhunter.KindCampaign {
		return runErr
	}
	if p.Kind == cityhunter.KindDeployment {
		dep := outcome.Deployments[0]
		if *planFile == "" {
			fmt.Fprintf(out, "city-scale deployment: %d sites, %d districts, %d far-field pedestrians\n",
				len(dep.Sites), len(world.City.RouteStops()), *population)
		} else {
			fmt.Fprintf(out, "deployment %s: %d sites, %s knowledge plane, %d roams\n",
				*planFile, len(dep.Sites), dep.Knowledge, dep.Roams)
		}
		printDeployment(out, dep)
		return nil
	}

	res := outcome.Results[0]
	fmt.Fprintf(out, "%s at the %s, %s, %d minutes\n", res.Attack, res.Venue, res.SlotLabel, *minutes)
	fmt.Fprintln(out, res.Tally)
	if res.Report.DeauthsSent > 0 {
		fmt.Fprintf(out, "spoofed deauthentications sent: %d\n", res.Report.DeauthsSent)
	}
	if *pcapPath != "" && res.Trace != nil {
		f, err := os.Create(*pcapPath)
		if err != nil {
			return err
		}
		err = res.Trace.WritePcap(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d captured frames to %s (dropped %d beyond the cap)\n",
			res.Trace.Len(), *pcapPath, res.Trace.Dropped)
		a := trace.Analyze(res.Trace.Entries())
		fmt.Fprintf(out, "capture: %d frames, %d probers (%d direct), probe interval p50=%v p90=%v\n",
			a.Frames, a.Probers, a.DirectProbers,
			a.ProbeIntervalP50.Truncate(time.Millisecond),
			a.ProbeIntervalP90.Truncate(time.Millisecond))
	}
	if res.CanaryDetections > 0 {
		fmt.Fprintf(out, "canary unmaskings by defended phones: %d\n", res.CanaryDetections)
	}
	if *sentinel && res.Sentinel != nil {
		if findings := res.Sentinel.Findings(); len(findings) > 0 {
			f := findings[0]
			fmt.Fprintf(out, "sentinel flagged %v after %v (%d lure SSIDs)\n",
				f.BSSID, f.FlaggedAt.Truncate(time.Millisecond), res.Sentinel.SSIDCount(f.BSSID))
		} else {
			fmt.Fprintln(out, "sentinel flagged nothing")
		}
	}
	if *breakdown && res.Engine != nil {
		b := res.Breakdown()
		fmt.Fprintf(out, "hitting SSIDs: %d from WiGLE, %d harvested, %d carrier\n",
			b.FromWiGLE, b.FromDirect, b.FromCarrier)
		fmt.Fprintf(out, "served by: popularity side %d, freshness side %d\n",
			b.FromPopularity, b.FromFreshness)
	}
	if *traceOut != "" && res.Spans != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		err = res.Spans.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d trace events (%s) to %s — open in chrome://tracing or ui.perfetto.dev\n",
			res.Spans.Len(), strings.Join(res.Spans.Categories(), ", "), *traceOut)
	}
	if *metrics && res.Metrics != nil {
		fmt.Fprintln(out, "--- metrics ---")
		if err := res.Metrics.WriteText(out); err != nil {
			return err
		}
		if res.Journal != nil {
			events := res.Journal.Events()
			fmt.Fprintf(out, "--- flight recorder: %d events (%d overwritten) ---\n",
				res.Journal.Len(), res.Journal.Dropped())
			tail := events
			if len(tail) > 10 {
				tail = tail[len(tail)-10:]
			}
			for _, e := range tail {
				fmt.Fprintf(out, "%12s %-12s %-20s %s\n",
					e.At.Truncate(time.Millisecond), e.Type, e.Actor, e.Detail)
			}
		}
	}
	return nil
}

// printCampaign writes a campaign's per-run rows in spec order, so output
// is identical at any -parallel value, then the aggregate line. After a
// cancellation only the completed runs have a tally.
func printCampaign(out io.Writer, path string, specs []cityhunter.RunSpec, res *cityhunter.CampaignResult) {
	fmt.Fprintf(out, "campaign %s: %d runs, %d completed\n", path, len(specs), res.Completed)
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("run %d", i)
		}
		if res.Errs[i] != nil {
			fmt.Fprintf(out, "%-24s %s\n", name, res.Errs[i])
			continue
		}
		r := res.Results[i]
		if r == nil {
			fmt.Fprintf(out, "%-24s not run\n", name)
			continue
		}
		fmt.Fprintf(out, "%-24s %s at the %s, %s: %v\n",
			name, r.Attack, r.Venue, r.SlotLabel, r.Tally)
	}
	fmt.Fprintln(out, res.Aggregate.String())
}

// printDeployment writes a deployment's per-site rows, the pooled tally
// and, when the run had a far field, its promotion accounting.
func printDeployment(out io.Writer, res *cityhunter.DeploymentResult) {
	for _, r := range res.Sites {
		fmt.Fprintf(out, "%-24s %s, %s: %v\n", r.Venue, r.Attack, r.SlotLabel, r.Tally)
	}
	fmt.Fprintf(out, "pooled: %v\n", res.Tally)
	if ff := res.FarField; ff != nil {
		fmt.Fprintf(out, "far field: %d pedestrians, %d promoted (%d promotions, %d demotions, peak %d), %v\n",
			ff.Pedestrians, ff.Promoted, ff.Promotions, ff.Demotions, ff.PeakPromoted, ff.Tally)
		for i, s := range ff.Sites {
			fmt.Fprintf(out, "  site %-18s %d promotions, %d hits\n", res.Sites[i].Venue+":", s.Promotions, s.Hits)
		}
	}
}

// rejectUnreadFlags fails on the first flag set on the command line that
// the run branch chosen by the plan kind and -population never reads, so
// no explicit setting is silently dropped. -plan, -seed, -cpuprofile,
// -memprofile and -monitor apply to every branch.
func rejectUnreadFlags(fs *flag.FlagSet, kind cityhunter.PlanKind, population int) error {
	runFlags := []string{"attack", "slot", "minutes", "deauth", "preconnected", "loss", "canary", "randomize-macs"}
	var what string
	var reads []string
	switch {
	case kind == cityhunter.KindCampaign:
		what, reads = "campaign plan", []string{"parallel"}
	case kind == cityhunter.KindDeployment || kind == "" && population > 0:
		// Without a plan, -population builds the city-scale deployment; a
		// venue plan never reads it.
		what, reads = "deployment plan", append(runFlags, "population", "partitions")
		if kind != cityhunter.KindDeployment {
			what = "-population run"
		}
		if population > 0 {
			// -lod-radius sizes the far field -population adds.
			reads = append(reads, "lod-radius")
		}
	default:
		what, reads = "venue plan", append(runFlags, "breakdown", "pcap", "sentinel", "metrics", "trace-out")
		if kind != cityhunter.KindVenue {
			// Without a plan, -venue picks the venue.
			what, reads = "venue run", append(reads, "venue")
		}
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "plan", "seed", "cpuprofile", "memprofile", "monitor":
			return
		}
		if err == nil && !slices.Contains(reads, f.Name) {
			err = fmt.Errorf("-%s does not apply to a %s", f.Name, what)
		}
	})
	return err
}
