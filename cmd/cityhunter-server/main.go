// Command cityhunter-server is the long-running campaign service: an
// HTTP/JSON job API that accepts plan envelopes (venue, deployment or
// campaign — see cityhunter.SavePlan), runs them on a shared bounded
// campaign pool, streams per-job progress over SSE, and persists results
// in a content-addressed store. Submitting an identical plan again is a
// cache hit; resubmitting a cancelled or drained campaign resumes from
// its completed specs.
//
// Usage:
//
//	cityhunter-server [flags]
//
//	-addr        listen address                  (default 127.0.0.1:9137)
//	-store       result store directory         (default cityhunter-store)
//	-workers     per-job campaign pool width    (default 0 = GOMAXPROCS)
//	-max-jobs    concurrently running jobs      (default 1)
//
// Endpoints:
//
//	POST   /api/v1/jobs               submit {"plan": <envelope>, "seed": N, ...}
//	GET    /api/v1/jobs               list jobs
//	GET    /api/v1/jobs/{id}          job status
//	DELETE /api/v1/jobs/{id}          cancel (checkpoints survive)
//	GET    /api/v1/jobs/{id}/result   final result JSON
//	GET    /api/v1/jobs/{id}/events   SSE job event stream
//	GET    /metrics /runs /events     merged live telemetry
//	GET    /debug/pprof               process profiling
//
// SIGTERM or SIGINT drains gracefully: in-flight specs finish and
// checkpoint, queued jobs move to checkpointed, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cityhunter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cityhunter-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cityhunter-server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9137", "listen address")
	store := fs.String("store", "cityhunter-store", "content-addressed result store directory")
	workers := fs.Int("workers", 0, "per-job campaign pool width (0 = GOMAXPROCS)")
	maxJobs := fs.Int("max-jobs", 1, "concurrently running jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := cityhunter.NewCampaignServer(cityhunter.CampaignServerConfig{
		StoreDir: *store,
		Workers:  *workers,
		MaxJobs:  *maxJobs,
	})
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Printf("cityhunter-server: listening on http://%s (store %s)\n", bound, *store)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	s := <-sig
	fmt.Printf("cityhunter-server: %v — draining (in-flight specs finish and checkpoint)\n", s)
	srv.Shutdown()
	fmt.Println("cityhunter-server: drained")
	return nil
}
