package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serve/api"
	"repro/internal/serve/httperror"
	"repro/internal/serve/queue"
)

// newTestRunner builds a runner over a private token pool with a fake
// executor; callers must not leak running jobs past the test.
func newTestRunner(t *testing.T, poolSize int, qcfg queue.Config, exec ExecFunc) *Runner {
	t.Helper()
	r, err := New(Config{
		Dir:   t.TempDir(),
		Pool:  sched.NewTokenPool(poolSize),
		Queue: qcfg,
		Exec:  exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func trainSpec() api.JobSpec {
	s := api.JobSpec{Kind: api.KindTrain}
	s.Normalize()
	return s
}

func waitTerminal(t *testing.T, j *Job) api.State {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state (stuck in %s)", j.ID(), j.State())
	}
	return j.State()
}

func TestFSMTransitions(t *testing.T) {
	legal := []struct{ from, to api.State }{
		{api.StateQueued, api.StateRunning},
		{api.StateQueued, api.StateCancelled},
		{api.StateRunning, api.StateDone},
		{api.StateRunning, api.StateFailed},
		{api.StateRunning, api.StateCancelled},
		{api.StateRunning, api.StateQueued}, // checkpoint-preemption requeues
	}
	for _, e := range legal {
		if !canTransition(e.from, e.to) {
			t.Errorf("transition %s → %s should be legal", e.from, e.to)
		}
	}
	illegal := []struct{ from, to api.State }{
		{api.StateQueued, api.StateDone},     // a job cannot finish without running
		{api.StateQueued, api.StateFailed},   // nor fail without running
		{api.StateDone, api.StateRunning},    // terminal states are final
		{api.StateDone, api.StateCancelled},  // cancelling finished work is a 409
		{api.StateFailed, api.StateRunning},  // no silent retry
		{api.StateCancelled, api.StateDone},  // cancelled stays cancelled
		{api.StateQueued, api.StateQueued},   // no self-loop
		{api.StateRunning, api.StateRunning}, // no self-loop
	}
	for _, e := range illegal {
		if canTransition(e.from, e.to) {
			t.Errorf("transition %s → %s should be illegal", e.from, e.to)
		}
	}
}

func TestJobLifecycleDone(t *testing.T) {
	r := newTestRunner(t, 2, queue.Config{}, func(j *Job) (api.Result, error) {
		return api.Result{FinalLoss: 0.25, Best: 0.75}, nil
	})
	defer r.Shutdown(context.Background())
	j, err := r.Submit(trainSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != api.StateDone {
		t.Fatalf("state = %s, want done", st)
	}
	res, ok := j.Result()
	if !ok || res.FinalLoss != 0.25 {
		t.Fatalf("result = %+v, ok=%v", res, ok)
	}
	// The result artifact is persisted as JSON.
	b, err := os.ReadFile(j.View().Artifacts.Result)
	if err != nil {
		t.Fatalf("result artifact: %v", err)
	}
	var onDisk api.Result
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatalf("result artifact decode: %v", err)
	}
	if onDisk.Best != 0.75 {
		t.Fatalf("artifact = %+v", onDisk)
	}
	// Telemetry has submitted/started/finished lifecycle lines.
	tb, err := os.ReadFile(j.View().Artifacts.Telemetry)
	if err != nil {
		t.Fatalf("telemetry artifact: %v", err)
	}
	for _, ev := range []string{`"submitted"`, `"started"`, `"finished"`} {
		if !strings.Contains(string(tb), ev) {
			t.Errorf("telemetry missing %s event:\n%s", ev, tb)
		}
	}
}

func TestJobFailureCapturesError(t *testing.T) {
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		return api.Result{}, fmt.Errorf("loss went to NaN")
	})
	defer r.Shutdown(context.Background())
	j, _ := r.Submit(trainSpec())
	if st := waitTerminal(t, j); st != api.StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if v := j.View(); v.Error != "loss went to NaN" {
		t.Fatalf("error = %q", v.Error)
	}
	if _, ok := j.Result(); ok {
		t.Fatal("failed job has a result")
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		close(started)
		<-j.Context().Done() // a well-behaved executor observes the context
		return api.Result{FinalLoss: 1.0}, j.Context().Err()
	})
	defer r.Shutdown(context.Background())
	j, _ := r.Submit(trainSpec())
	<-started
	if err := r.Cancel(j.ID()); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if st := waitTerminal(t, j); st != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	// A cancelled run keeps its partial result (checkpoint position).
	if res, ok := j.Result(); !ok || res.FinalLoss != 1.0 {
		t.Fatalf("partial result = %+v, ok=%v", res, ok)
	}
	// Cancelling again is a lifecycle conflict.
	err := r.Cancel(j.ID())
	var he *httperror.Error
	if !errors.As(err, &he) || he.Status != 409 {
		t.Fatalf("second cancel err = %v, want 409", err)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	block := make(chan struct{})
	var ran sync.Map
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		ran.Store(j.ID(), true)
		<-block
		return api.Result{}, nil
	})
	defer func() { close(block); r.Shutdown(context.Background()) }()
	j1, _ := r.Submit(trainSpec()) // occupies the only slot
	j2, _ := r.Submit(trainSpec()) // waits in the queue
	if err := r.Cancel(j2.ID()); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if st := waitTerminal(t, j2); st != api.StateCancelled {
		t.Fatalf("state = %s, want cancelled", st)
	}
	if v := j2.View(); !v.StartedAt.IsZero() {
		t.Fatal("queued-cancelled job has a start time")
	}
	if _, ok := ran.Load(j2.ID()); ok {
		t.Fatal("cancelled queued job was executed")
	}
	_ = j1
}

func TestCancelUnknownJob(t *testing.T) {
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		return api.Result{}, nil
	})
	defer r.Shutdown(context.Background())
	err := r.Cancel("jb-999999")
	var he *httperror.Error
	if !errors.As(err, &he) || he.Status != 404 {
		t.Fatalf("err = %v, want 404", err)
	}
}

func TestSubmitQuotaExhausted(t *testing.T) {
	block := make(chan struct{})
	r := newTestRunner(t, 1, queue.Config{MaxQueuedPerTenant: 1},
		func(j *Job) (api.Result, error) { <-block; return api.Result{}, nil })
	defer func() { close(block); r.Shutdown(context.Background()) }()
	if _, err := r.Submit(trainSpec()); err != nil { // dispatched
		t.Fatal(err)
	}
	waitFor(t, func() bool { return r.QueueLen() == 0 }) // popped into the slot
	if _, err := r.Submit(trainSpec()); err != nil {     // queued
		t.Fatal(err)
	}
	_, err := r.Submit(trainSpec()) // over quota
	var he *httperror.Error
	if !errors.As(err, &he) || he.Status != 429 {
		t.Fatalf("err = %v, want 429", err)
	}
	// Rejected jobs leave no registry entry behind.
	if got := len(r.Jobs()); got != 2 {
		t.Fatalf("registry has %d jobs, want 2", got)
	}
	// A different tenant still gets in.
	other := trainSpec()
	other.Tenant = "team-b"
	if _, err := r.Submit(other); err != nil {
		t.Fatalf("tenant b rejected: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResumeFromUnknownJob(t *testing.T) {
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		return api.Result{}, nil
	})
	defer r.Shutdown(context.Background())
	s := trainSpec()
	s.ResumeFrom = "jb-404404"
	_, err := r.Submit(s)
	var he *httperror.Error
	if !errors.As(err, &he) || he.Status != 400 {
		t.Fatalf("err = %v, want 400", err)
	}
}

func TestResumeSharesCheckpointDir(t *testing.T) {
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		return api.Result{}, nil
	})
	defer r.Shutdown(context.Background())
	j1, err := r.Submit(trainSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	s := trainSpec()
	s.ResumeFrom = j1.ID()
	j2, err := r.Submit(s)
	if err != nil {
		t.Fatal(err)
	}
	if j2.CheckpointDir() != j1.CheckpointDir() {
		t.Fatalf("resume job checkpoints at %s, want source dir %s",
			j2.CheckpointDir(), j1.CheckpointDir())
	}
	waitTerminal(t, j2)
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	r := newTestRunner(t, 1, queue.Config{}, func(j *Job) (api.Result, error) {
		<-j.Context().Done()
		return api.Result{}, j.Context().Err()
	})
	j, _ := r.Submit(trainSpec())
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := j.State(); st != api.StateCancelled {
		t.Fatalf("job state after shutdown = %s, want cancelled", st)
	}
	_, err := r.Submit(trainSpec())
	var he *httperror.Error
	if !errors.As(err, &he) || he.Status != 503 {
		t.Fatalf("submit after shutdown err = %v, want 503", err)
	}
}

// TestTokenPoolHammer runs many concurrent tiny *real* training jobs
// against a 2-token pool and asserts the compute budget was never
// oversubscribed — the serve-level version of the scheduler's token
// invariant, meant to run under -race.
func TestTokenPoolHammer(t *testing.T) {
	pool := sched.NewTokenPool(2)
	r, err := New(Config{Dir: t.TempDir(), Pool: pool, Queue: queue.Config{MaxQueuedPerTenant: 32}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Shutdown(context.Background())
	const n = 8
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		s := api.JobSpec{
			Kind: api.KindTrain, Tenant: fmt.Sprintf("t%d", i%3),
			Model: "mlp", Optimizer: "sgd",
			Epochs: 1, Batch: 4, Classes: 2, Samples: 4,
			Seed: uint64(i + 1),
		}
		s.Normalize()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		j, err := r.Submit(s)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		if st := waitTerminal(t, j); st != api.StateDone {
			t.Fatalf("job %d state = %s (err %q), want done", i, st, j.View().Error)
		}
	}
	if hw := pool.HighWater(); hw > pool.Cap() {
		t.Fatalf("token high-water %d exceeds capacity %d", hw, pool.Cap())
	}
	if r.MaxRunning() != 2 {
		t.Fatalf("maxRunning = %d, want clamped to pool cap 2", r.MaxRunning())
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Fatalf("tokens leaked: %d still in use", inUse)
	}
}

// TestSchedJobsHoldEveryToken runs pool.Cap() real HyLo jobs at once on
// the scheduler's own pool, at one stage worker on one core and at two on
// two: the jobs hold every token, so each job's preconditioner pipeline
// must run on its job's token rather than wait for another.
func TestSchedJobsHoldEveryToken(t *testing.T) {
	for _, w := range []struct{ procs, workers int }{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("procs=%d/workers=%d", w.procs, w.workers), func(t *testing.T) {
			oldProcs := runtime.GOMAXPROCS(w.procs)
			oldWorkers := sched.Workers()
			sched.SetWorkers(w.workers)
			defer func() {
				runtime.GOMAXPROCS(oldProcs)
				sched.SetWorkers(oldWorkers)
			}()
			pool := sched.Tokens()
			r, err := New(Config{Dir: t.TempDir(), Pool: pool, MaxRunning: pool.Cap()})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				r.Shutdown(ctx)
			}()
			s := api.JobSpec{
				Kind: api.KindTrain, Model: "mlp", Optimizer: "hylo",
				Epochs: 2, Batch: 8, Classes: 2, Samples: 16, Seed: 1,
			}
			s.Normalize()
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			jobs := make([]*Job, pool.Cap())
			for i := range jobs {
				if jobs[i], err = r.Submit(s); err != nil {
					t.Fatal(err)
				}
			}
			for i, j := range jobs {
				if st := waitTerminal(t, j); st != api.StateDone {
					t.Fatalf("job %d state = %s (err %q), want done", i, st, j.View().Error)
				}
			}
		})
	}
}
