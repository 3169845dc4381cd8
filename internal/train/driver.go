package train

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/telemetry"
)

// ElasticConfig is a run's checkpoint and fault-injection settings. The
// zero value trains without checkpoints and therefore without recovery.
type ElasticConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every is the checkpoint cadence in epochs (default 1).
	Every int
	// Resume loads the latest good snapshot in Dir before the first launch
	// (otherwise existing snapshots are only used after a failure).
	Resume bool
	// Faults, when non-nil and enabled, wraps every worker's communicator
	// in a deterministic chaos injector. The scheduled panic is disabled
	// after the first failure so a recovered run does not re-die at the
	// same step; bit-flip and straggler injection stay active.
	Faults *dist.FaultPlan
}

const (
	maxRestarts   = 3 // recovery attempts before the driver gives up
	keepSnapshots = 3 // retained snapshots: corruption of the newest can fall back
)

// ErrCancelled is returned by Drive when its context was cancelled before
// training completed: the run stopped cooperatively at an epoch boundary
// after force-writing a checkpoint, so a later launch with
// ElasticConfig.Resume continues it bit-identically. The Result
// accompanying the error holds the statistics accumulated so far.
var ErrCancelled = errors.New("train: run cancelled")

// checkpoints is where and how often a run saves. The zero value — no
// checkpoint directory — never saves and has nothing to load.
type checkpoints struct {
	mgr   *ckpt.Manager
	every int // epochs between checkpoints; 0 never saves
}

// latest loads the last good snapshot (corrupt files fall back inside
// LoadLatest); nil means start cold.
func (c checkpoints) latest() (*ckpt.Snapshot, error) {
	if c.mgr == nil {
		return nil, nil
	}
	snap, _, err := c.mgr.LoadLatest()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil, nil
	}
	return snap, err
}

// Drive trains job on cl and returns rank 0's Result. With a checkpoint
// directory it survives rank failures: when a rank panics (or a watchdog
// converts a hang), the driver reloads the last good snapshot, has the
// cluster regroup, and resumes, giving up after maxRestarts; without one a
// failure ends the run.
//
// When ctx is cancelled, every rank observes it at the next epoch boundary
// (the decision is made collectively, so replicas stay in step), a
// checkpoint is force-written, and the call returns ErrCancelled with the
// partial Result. A context that can never be cancelled adds no collectives
// and leaves the training schedule byte-for-byte unchanged.
func Drive(ctx context.Context, cl Cluster, job Job, ec ElasticConfig) (Result, error) {
	var ckpts checkpoints
	if ec.Dir != "" {
		mgr, err := ckpt.NewManager(ec.Dir, keepSnapshots)
		if err != nil {
			return Result{}, fmt.Errorf("train: checkpoint dir: %w", err)
		}
		ckpts = checkpoints{mgr: mgr, every: max(ec.Every, 1)}
	}
	plan := dist.FaultPlan{PanicStep: -1}
	if ec.Faults != nil {
		plan = *ec.Faults
	}
	var resume *ckpt.Snapshot
	if ec.Resume {
		var err error
		if resume, err = ckpts.latest(); err != nil {
			return Result{}, err
		}
	}

	var cancelled atomic.Bool
	for attempt := 0; ; attempt++ {
		snap, err := cl.syncSnapshot(resume)
		if err != nil {
			return Result{}, err
		}
		tl := dist.NewTimeline()
		var res Result
		errs := cl.run(func(comm dist.Comm) {
			if plan.Enabled() {
				comm = dist.NewFaultInjector(comm, plan)
			}
			w := worker{job: &job, comm: comm, ckpts: ckpts, cancel: ctx.Done()}
			if comm.ID() == 0 {
				w.res = &res
			}
			if w.train(snap, tl) {
				cancelled.Store(true)
			}
		})
		if len(errs) == 0 {
			if cancelled.Load() {
				return res, ErrCancelled
			}
			return res, nil
		}
		if attempt >= maxRestarts || ckpts.mgr == nil {
			return res, fmt.Errorf("train: giving up after %d restarts: %v", attempt, errs)
		}

		// Recovery: disarm the one-shot panic, reload the last good
		// snapshot (nil: the failure came before the first checkpoint, so
		// restart cold), and have the cluster ready its next generation.
		telemetry.IncCounter(telemetry.MetricRecoveries, 1)
		telemetry.Instant("train_recovery", 0,
			telemetry.Label{Key: "attempt", Value: fmt.Sprint(attempt + 1)},
			telemetry.Label{Key: "error", Value: fmt.Sprint(errs[0])})
		plan.PanicStep = -1
		if resume, err = ckpts.latest(); err != nil {
			return res, err
		}
		if err := cl.regroup(); err != nil {
			return res, err
		}
	}
}
