// Command hylo-serve is the training-as-a-service daemon: it exposes the
// repository's training and benchmark harnesses behind a JSON HTTP API
// with a bounded job pool, per-tenant fair queueing, live telemetry, and
// checkpoint-on-cancel semantics.
//
//	hylo-serve -addr :8080 -data-dir /var/lib/hylo -max-jobs 2
//
// Concurrency model: every running job holds one token from the
// process-wide scheduler pool (sched.Tokens()), the same pool the
// layer-parallel preconditioner stages and parallel GEMM draw from — so N
// concurrent jobs plus their nested parallelism can never oversubscribe
// the machine.
//
// Shutdown: SIGINT/SIGTERM stops admission (new submissions get 503),
// cancels running jobs — each checkpoints at its next epoch boundary and
// can be resubmitted later with {"resume_from": "<job-id>"} — and exits
// once everything unwinds or the grace deadline expires.
//
// Durability: the job registry is persistent. Every job writes a
// job.json record and an append-only state journal into its artifact
// directory; a restarted daemon (clean stop or SIGKILL alike) rescans
// -data-dir, rebuilds the registry, re-enqueues jobs that died queued,
// and resumes jobs that died running from their latest valid checkpoint.
// Artifact retention is governed by -retain-done, -retain-max-bytes, and
// -retain-age; a zero value for all three keeps artifacts forever.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/serve/queue"
	"repro/internal/serve/runner"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dataDir       = flag.String("data-dir", "hylo-serve-data", "artifact root (job dirs, checkpoints, telemetry)")
		maxJobs       = flag.Int("max-jobs", 0, "max concurrently running jobs (0 = derive from token pool)")
		maxQueued     = flag.Int("max-queued-per-tenant", 16, "admission quota: queued jobs per tenant")
		maxActive     = flag.Int("max-active-per-tenant", 0, "fairness quota: running jobs per tenant (0 = unlimited)")
		shutdownGrace = flag.Duration("shutdown-grace", 2*time.Minute, "max time to wait for running jobs to checkpoint on shutdown")
		retainDone    = flag.Int("retain-done", 0, "keep at most N finished jobs' artifacts (0 = keep all)")
		retainBytes   = flag.Int64("retain-max-bytes", 0, "cap total artifact bytes; oldest finished jobs collected first (0 = unlimited)")
		retainAge     = flag.Duration("retain-age", 0, "collect finished jobs older than this (0 = never)")
		gcInterval    = flag.Duration("gc-interval", time.Minute, "artifact GC sweep cadence")
	)
	flag.Parse()

	if err := cliutil.ValidateListenAddr(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "hylo-serve:", err)
		os.Exit(2)
	}
	if err := cliutil.ValidateRetention(*retainDone, *retainBytes, *retainAge, *gcInterval); err != nil {
		fmt.Fprintln(os.Stderr, "hylo-serve:", err)
		os.Exit(2)
	}
	telemetry.SetEnabled(true)

	pool := sched.Tokens()
	r, err := runner.New(runner.Config{
		Dir:        *dataDir,
		Pool:       pool,
		MaxRunning: *maxJobs,
		Queue: queue.Config{
			MaxQueuedPerTenant: *maxQueued,
			MaxActivePerTenant: *maxActive,
		},
		Retention: runner.Retention{
			RetainDone: *retainDone,
			MaxBytes:   *retainBytes,
			MaxAge:     *retainAge,
			Interval:   *gcInterval,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hylo-serve:", err)
		os.Exit(1)
	}

	srv := serve.New(r)
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("hylo-serve: listening on %s (max %d concurrent jobs, %d tokens, %d stage workers)\n",
		*addr, r.MaxRunning(), pool.Cap(), sched.Workers())

	select {
	case sig := <-sigs:
		fmt.Printf("hylo-serve: %v — draining (grace %s)\n", sig, *shutdownGrace)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "hylo-serve:", err)
		os.Exit(1)
	}

	// Graceful shutdown, in order: flip /healthz to draining, cancel every
	// job (running ones checkpoint at their next epoch boundary), wait for
	// the pool to unwind, then close the listener and flush telemetry.
	srv.SetDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "hylo-serve: drain incomplete:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "hylo-serve: http shutdown:", err)
	}
	fmt.Println("hylo-serve: stopped")
}
