// Package runner owns hylo-serve's job lifecycle: a registry of submitted
// jobs, a finite-state machine per job (queued → running → done | failed |
// cancelled), and a dispatcher that drains the per-tenant fair queue onto
// a bounded pool of executor goroutines.
//
// The compute bound is the scheduler's TokenPool: every running job holds
// one token for its lifetime, the layer-parallel preconditioner stages and
// parallel GEMM below it borrow additional tokens from the same pool, and
// therefore concurrent jobs plus their nested parallelism can never
// oversubscribe the process-wide core budget — the serve-level extension
// of the invariant TestTokenBudget proves for a single run. When the
// scheduler's stage pipelines are enabled (sched.Workers() > 1), callers
// must leave at least one token of headroom (MaxRunning < pool capacity)
// so a pipeline stage can always eventually acquire a token while every
// job slot is occupied; cmd/hylo-serve does this automatically.
//
// Cancellation is context-driven end to end: cancelling a job closes its
// context, train.Drive observes it at the next epoch boundary,
// force-writes a checkpoint, and the job lands in StateCancelled with a
// resumable checkpoint directory in its artifacts.
//
// The registry is durable: every job writes an immutable job.json and an
// append-only state journal into its artifact directory (persist.go), and
// a restarted daemon replays them to rebuild the registry, re-enqueue
// interrupted work, and resume from checkpoints (recover.go). Priority
// classes (low/normal/high) order dispatch globally, and when every slot
// is busy a queued higher-priority job checkpoint-preempts the
// lowest-priority running train job: the victim's context is cancelled —
// the same epoch-boundary force-checkpoint path as user cancellation —
// and the job re-enqueues at the front of its class to resume later,
// bit-identical to an unpreempted run. Artifact GC (gc.go) sweeps
// terminal jobs under the configured Retention policy.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/sched"
	"repro/internal/serve/api"
	"repro/internal/serve/httperror"
	"repro/internal/serve/queue"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// ExecFunc executes one job and returns its result artifact. The default
// is Execute (training/bench); tests substitute fakes.
type ExecFunc func(j *Job) (api.Result, error)

// Config assembles a Runner.
type Config struct {
	// Dir is the artifact root; each job gets Dir/<job-id>/.
	Dir string
	// Pool is the shared compute-token pool (required). Pass
	// sched.Tokens() to share the budget with the layer-parallel scheduler
	// and parallel GEMM, or a private pool in tests.
	Pool *sched.TokenPool
	// MaxRunning bounds concurrently dispatched jobs; 0 selects the pool
	// capacity. Values above the pool capacity are clamped to it.
	MaxRunning int
	// Queue holds the per-tenant quota knobs.
	Queue queue.Config
	// Exec overrides the job executor (tests); nil selects Execute.
	Exec ExecFunc
	// Retention configures the artifact garbage collector; the zero value
	// disables sweeping (artifacts are kept forever).
	Retention Retention
}

// Job is one submitted job. All exported accessors are safe for concurrent
// use; mutation happens only inside the runner.
type Job struct {
	id string

	mu       sync.Mutex
	spec     api.JobSpec
	state    api.State
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	progress api.Progress
	arts     api.Artifacts
	result   *api.Result
	telog    *os.File
	journal  *os.File

	// priority is the cliutil rank (0 low … 2 high) parsed at submit.
	priority int
	// provenance records how this incarnation came to run (api.Provenance*).
	provenance string
	// resume marks that the next dispatch must load the latest checkpoint:
	// set for resume_from submissions, by preemption, and by recovery.
	resume bool
	// preempted marks an in-flight checkpoint-preemption; runJob re-enqueues
	// instead of finishing when the executor unwinds with it set.
	preempted bool
	// userCancelled distinguishes an explicit DELETE from a preemption when
	// both race: the user's cancel always wins.
	userCancelled bool
	// preemptions counts completed preemptions, surfaced in the wire view.
	preemptions int

	// ctx is cancelled by Runner.Cancel and Runner.Shutdown; its Done
	// channel gates the token acquisition and flows into
	// train.Drive as the cooperative cancellation signal.
	ctx       context.Context
	ctxCancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns a copy of the (normalized) submission spec.
func (j *Job) Spec() api.JobSpec {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// State returns the job's current lifecycle state.
func (j *Job) State() api.State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Context returns the job's cancellation context. Preemption swaps in a
// fresh context for the next incarnation, so the read is locked.
func (j *Job) Context() context.Context {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctx
}

// cancelCtx cancels the job's current context (locked for the same
// reason as Context).
func (j *Job) cancelCtx() {
	j.mu.Lock()
	cancel := j.ctxCancel
	j.mu.Unlock()
	cancel()
}

// resumeFlag reports whether the next dispatch must load the latest
// checkpoint.
func (j *Job) resumeFlag() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume
}

// CheckpointDir returns the checkpoint directory this job writes to (its
// resume source's directory for resubmitted jobs).
func (j *Job) CheckpointDir() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.arts.Checkpoints
}

// View renders the wire representation.
func (j *Job) View() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.Job{
		ID:          j.id,
		Spec:        j.spec,
		Priority:    cliutil.PriorityName(j.priority),
		State:       j.state,
		Provenance:  j.provenance,
		Preemptions: j.preemptions,
		Error:       j.errMsg,
		CreatedAt:   j.created,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Progress:    j.progress,
		Artifacts:   j.arts,
	}
}

// Result returns the final result artifact, or false before completion.
func (j *Job) Result() (api.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return api.Result{}, false
	}
	return *j.result, true
}

// validNext encodes the lifecycle FSM: the only legal transitions. Every
// state change goes through transition, so an illegal move is a bug caught
// at the choke point rather than a silently inconsistent registry.
var validNext = map[api.State][]api.State{
	api.StateQueued: {api.StateRunning, api.StateCancelled},
	// running → queued is the checkpoint-preemption edge: the job's context
	// is cancelled, training force-writes a checkpoint, and the job goes
	// back to the queue to resume later instead of finishing.
	api.StateRunning: {api.StateDone, api.StateFailed, api.StateCancelled, api.StateQueued},
}

func canTransition(from, to api.State) bool {
	for _, s := range validNext[from] {
		if s == to {
			return true
		}
	}
	return false
}

// transitionLocked moves the FSM, returning an error (and changing nothing)
// on an illegal edge.
func (j *Job) transitionLocked(to api.State) error {
	if !canTransition(j.state, to) {
		return fmt.Errorf("runner: illegal transition %s → %s for job %s", j.state, to, j.id)
	}
	j.state = to
	switch {
	case to == api.StateRunning:
		j.started = time.Now()
	case to.Terminal():
		j.finished = time.Now()
		close(j.done)
	}
	return nil
}

// telemetryLine is one JSONL record in the per-job telemetry artifact:
// either a lifecycle event or an epoch progress sample.
type telemetryLine struct {
	TS    time.Time `json:"ts"`
	Event string    `json:"event,omitempty"`
	State string    `json:"state,omitempty"`
	Error string    `json:"error,omitempty"`
	*api.EpochRecord
}

// logEventLocked appends a lifecycle line to the job's telemetry JSONL. The
// file is opened lazily and lines are written unbuffered, so the artifact is
// live-tailable while the job runs and needs no flush on crash.
func (j *Job) logEventLocked(line telemetryLine) {
	if j.telog == nil {
		f, err := os.OpenFile(j.arts.Telemetry, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return // telemetry loss must never fail the job
		}
		j.telog = f
	}
	line.TS = time.Now()
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	j.telog.Write(append(b, '\n'))
}

// closeLogsLocked closes the telemetry and journal files (terminal state
// or admission rollback); both reopen lazily if ever written again.
func (j *Job) closeLogsLocked() {
	if j.telog != nil {
		j.telog.Close()
		j.telog = nil
	}
	if j.journal != nil {
		j.journal.Close()
		j.journal = nil
	}
}

// recordEpoch is the train.Config.OnEpoch hook: live progress for the
// status endpoint plus one JSONL telemetry line per epoch.
func (j *Job) recordEpoch(st train.EpochStat) {
	rec := api.EpochRecord{
		Epoch:     st.Epoch,
		TrainLoss: st.TrainLoss,
		Metric:    st.Metric,
		ElapsedS:  st.Elapsed.Seconds(),
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Epoch = st.Epoch + 1 // completed epochs
	j.progress.TrainLoss = st.TrainLoss
	j.progress.Metric = st.Metric
	j.logEventLocked(telemetryLine{EpochRecord: &rec})
}

// Runner is the job registry + dispatcher.
type Runner struct {
	cfg  Config
	exec ExecFunc
	q    *queue.Queue[*Job]

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	draining bool

	slots    chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	running  atomic.Int64
	// dispatched counts jobs holding a dispatch slot inside runJob; the
	// preemption trigger fires only when it reaches the slot count (a slot
	// parked in the dispatcher's pop loop is not busy).
	dispatched atomic.Int64
	// recovering is true while the asynchronous recovery phase re-enqueues
	// jobs from a previous daemon life; /healthz surfaces it.
	recovering atomic.Bool
}

// New builds a Runner, creates its artifact root, and starts the
// dispatcher.
func New(cfg Config) (*Runner, error) {
	if cfg.Pool == nil {
		return nil, fmt.Errorf("runner: nil token pool")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("runner: empty artifact directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: artifact dir: %w", err)
	}
	maxRunning := cfg.MaxRunning
	if maxRunning <= 0 || maxRunning > cfg.Pool.Cap() {
		maxRunning = cfg.Pool.Cap()
	}
	r := &Runner{
		cfg:   cfg,
		exec:  cfg.Exec,
		q:     queue.New[*Job](cfg.Queue),
		jobs:  make(map[string]*Job),
		slots: make(chan struct{}, maxRunning),
		stop:  make(chan struct{}),
	}
	if r.exec == nil {
		r.exec = Execute
	}
	// Rebuild the registry from a previous daemon life before the
	// dispatcher starts and before any submission can race the seq seed.
	pending, err := r.recoverScan()
	if err != nil {
		return nil, fmt.Errorf("runner: recovery scan: %w", err)
	}
	if len(pending) > 0 {
		r.recovering.Store(true)
		r.wg.Add(1)
		go r.finishRecovery(pending)
	}
	r.wg.Add(1)
	go r.dispatch()
	if cfg.Retention.enabled() {
		r.wg.Add(1)
		go r.gcLoop()
	}
	return r, nil
}

// MaxRunning returns the dispatch bound (the slot count).
func (r *Runner) MaxRunning() int { return cap(r.slots) }

// Running returns the number of jobs currently executing (token held).
func (r *Runner) Running() int { return int(r.running.Load()) }

// QueueLen returns the number of admitted, undispatched jobs.
func (r *Runner) QueueLen() int { return r.q.Len() }

// JobCount returns the registry size (all states, including recovered
// history); /healthz surfaces it.
func (r *Runner) JobCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// Submit validates nothing — the server normalizes and validates specs
// before calling — but resolves resume_from, allocates the job directory
// and ID, registers the job, and enqueues it. It returns
// httperror.TooManyRequests when the tenant's queue quota is exhausted and
// httperror.Unavailable once Shutdown has begun.
func (r *Runner) Submit(spec api.JobSpec) (*Job, error) {
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return nil, httperror.Unavailable("server is shutting down; not accepting jobs")
	}
	// Resolve the resume source under the registry lock so the referenced
	// job cannot disappear between check and use.
	resumeCkpt := ""
	if spec.ResumeFrom != "" {
		src, ok := r.jobs[spec.ResumeFrom]
		if !ok {
			r.mu.Unlock()
			return nil, httperror.BadRequest(fmt.Sprintf("resume_from: unknown job %q", spec.ResumeFrom))
		}
		srcCkpt := src.CheckpointDir()
		if srcCkpt == "" {
			r.mu.Unlock()
			return nil, httperror.BadRequest(fmt.Sprintf("resume_from: job %q has no checkpoint directory", spec.ResumeFrom))
		}
		resumeCkpt = srcCkpt
	}
	pri, err := cliutil.ParsePriority(spec.Priority)
	if err != nil {
		r.mu.Unlock()
		return nil, httperror.BadRequest(err.Error())
	}
	r.seq++
	id := fmt.Sprintf("jb-%06d", r.seq)
	dir := filepath.Join(r.cfg.Dir, id)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:         id,
		spec:       spec,
		state:      api.StateQueued,
		priority:   pri,
		provenance: api.ProvenanceFresh,
		resume:     spec.ResumeFrom != "",
		created:    time.Now(),
		ctx:        ctx, ctxCancel: cancel,
		done: make(chan struct{}),
	}
	if j.resume {
		j.provenance = api.ProvenanceResumed
	}
	j.arts = api.Artifacts{
		Dir:       dir,
		Telemetry: filepath.Join(dir, "telemetry.jsonl"),
		Result:    filepath.Join(dir, "result.json"),
	}
	if spec.Kind == api.KindTrain {
		j.arts.Checkpoints = filepath.Join(dir, "checkpoints")
		if resumeCkpt != "" {
			j.arts.Checkpoints = resumeCkpt
		}
	}
	j.progress.Epochs = spec.Epochs
	r.jobs[id] = j
	r.order = append(r.order, id)
	r.mu.Unlock()

	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.forget(id)
		return nil, httperror.Internal(fmt.Sprintf("create job dir: %v", err))
	}
	// The durable record is what recovery rebuilds the registry from: if it
	// cannot be written the job must not be admitted, or a crash would
	// silently drop it.
	if err := writeJobRecord(dir, jobRecord{
		ID: id, Spec: spec, Priority: pri, CreatedAt: j.created, Artifacts: j.arts,
	}); err != nil {
		r.forget(id)
		cancel()
		return nil, httperror.Internal(fmt.Sprintf("persist job record: %v", err))
	}
	j.mu.Lock()
	j.appendJournalLocked(journalEntry{
		State: api.StateQueued, Event: "submitted",
		Provenance: j.provenance, Resume: j.resume,
	})
	j.logEventLocked(telemetryLine{Event: "submitted", State: string(api.StateQueued)})
	j.mu.Unlock()
	if err := r.q.Push(spec.Tenant, pri, j); err != nil {
		r.forget(id)
		cancel()
		// Remove the durable record too, or a restart would resurrect a job
		// the tenant was told got bounced.
		j.mu.Lock()
		j.closeLogsLocked()
		j.mu.Unlock()
		os.RemoveAll(dir)
		return nil, httperror.TooManyRequests(fmt.Sprintf(
			"tenant %q queue quota exhausted; retry after a job finishes", spec.Tenant))
	}
	r.maybePreempt(pri)
	return j, nil
}

// forget removes a job that never made it into the queue.
func (r *Runner) forget(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.jobs, id)
	if n := len(r.order); n > 0 && r.order[n-1] == id {
		r.order = r.order[:n-1]
	}
}

// Get looks a job up by ID.
func (r *Runner) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns every registered job in submission order.
func (r *Runner) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Job, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.jobs[id])
	}
	return out
}

// Cancel requests cancellation: queued jobs land in StateCancelled
// immediately; running jobs get their context cancelled and reach
// StateCancelled once training has checkpointed and unwound. Cancelling a
// terminal job is a 409.
func (r *Runner) Cancel(id string) error {
	j, ok := r.Get(id)
	if !ok {
		return httperror.NotFound(fmt.Sprintf("job %q not found", id))
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		st := j.state
		j.mu.Unlock()
		return httperror.Conflict(fmt.Sprintf("job %s is already %s", id, st))
	case j.state == api.StateQueued:
		// The dispatcher discards cancelled jobs it pops; no token was
		// held, so the cancellation is immediate — journalled and logged
		// before the transition publishes it, as in finish.
		j.userCancelled = true
		j.appendJournalLocked(journalEntry{State: api.StateCancelled, Event: "cancelled"})
		j.logEventLocked(telemetryLine{Event: "cancelled", State: string(api.StateCancelled)})
		j.closeLogsLocked()
		j.transitionLocked(api.StateCancelled)
		j.mu.Unlock()
	default: // running
		// Mark the cancel as user-initiated so a preemption racing with it
		// cannot re-enqueue the job the user asked to stop.
		j.userCancelled = true
		j.mu.Unlock()
	}
	j.cancelCtx()
	return nil
}

// dispatch is the single dequeue loop: wait for a free slot, pop the next
// runnable job (fair round-robin, quota-aware), and hand it to an executor
// goroutine. Holding the slot until the job finishes keeps at most
// MaxRunning jobs out of the queue, so queued work stays in tenant-fair
// order rather than racing for tokens.
func (r *Runner) dispatch() {
	defer r.wg.Done()
	for {
		select {
		case r.slots <- struct{}{}:
		case <-r.stop:
			return
		}
		for {
			j, tenant, ok := r.q.Pop()
			if ok {
				r.wg.Add(1)
				go r.runJob(j, tenant)
				break
			}
			select {
			case <-r.q.Notify():
			case <-r.stop:
				<-r.slots
				return
			}
		}
	}
}

func (r *Runner) runJob(j *Job, tenant string) {
	defer r.wg.Done()
	r.dispatched.Add(1)
	// release gives back everything this dispatch holds — the pool token,
	// the tenant's active share, the dispatch slot. It runs before the
	// job's next state (terminal, or queued again after a preemption) is
	// published, so whoever observes that state also observes the capacity
	// returned; the deferred call covers the paths that publish nothing.
	token := false
	var once sync.Once
	release := func() {
		once.Do(func() {
			if token {
				r.cfg.Pool.Release(1)
			}
			r.dispatched.Add(-1)
			r.q.Done(tenant)
			<-r.slots
		})
	}
	defer release()

	// One token per running job, shared with nested stage/GEMM
	// parallelism: this acquire is what makes N concurrent jobs respect
	// the process-wide core budget. Cancellation aborts the wait.
	if !r.cfg.Pool.Acquire(j.Context().Done()) {
		release()
		j.finish(api.StateCancelled, nil, nil)
		return
	}
	token = true

	j.mu.Lock()
	if err := j.transitionLocked(api.StateRunning); err != nil {
		// Cancelled between dequeue and token grant; nothing ran.
		j.mu.Unlock()
		return
	}
	j.appendJournalLocked(journalEntry{
		State: api.StateRunning, Event: "started", Resume: j.resume,
	})
	j.logEventLocked(telemetryLine{Event: "started", State: string(api.StateRunning)})
	j.mu.Unlock()
	n := r.running.Add(1)
	telemetry.SetGauge(telemetry.MetricServeJobsRunning, float64(n))
	start := time.Now()

	result, err := r.exec(j)

	dur := time.Since(start)
	n = r.running.Add(-1)
	telemetry.SetGauge(telemetry.MetricServeJobsRunning, float64(n))

	state := api.StateDone
	switch {
	case err == nil:
	case isCancelled(err):
		state = api.StateCancelled
		err = nil
	default:
		state = api.StateFailed
	}
	release()
	if state == api.StateCancelled && r.requeuePreempted(j) {
		if telemetry.Enabled() {
			lbl := telemetry.Label{Key: "state", Value: "preempted"}
			telemetry.Default().Metrics.Histogram(
				telemetry.MetricServeJobDuration, telemetry.DurationBucketsNS, lbl).
				Observe(float64(dur.Nanoseconds()))
		}
		return
	}
	if telemetry.Enabled() {
		lbl := telemetry.Label{Key: "state", Value: string(state)}
		telemetry.Default().Metrics.Histogram(
			telemetry.MetricServeJobDuration, telemetry.DurationBucketsNS, lbl).
			Observe(float64(dur.Nanoseconds()))
		telemetry.IncCounter(telemetry.MetricServeJobsTotal, 1, lbl)
	}
	j.finish(state, &result, err)
}

// maybePreempt fires when a job of priority pri joins the queue: if every
// dispatch slot is busy and some running train job has strictly lower
// priority, the lowest-priority (most recently started among equals)
// victim is checkpoint-preempted — its context is cancelled, training
// force-writes a checkpoint at the epoch boundary, and runJob re-enqueues
// it to resume later.
func (r *Runner) maybePreempt(pri int) {
	if int(r.dispatched.Load()) < cap(r.slots) {
		return // a slot is (or is about to be) free; no need to evict
	}
	var victim *Job
	victimPri := 0
	var victimStart time.Time
	r.mu.Lock()
	for _, j := range r.jobs {
		j.mu.Lock()
		// Only running train jobs of strictly lower priority are eligible:
		// bench jobs have no epoch-boundary cancellation point, and equal
		// priority never evicts (FIFO fairness among peers).
		eligible := j.state == api.StateRunning && !j.preempted && !j.userCancelled &&
			j.spec.Kind == api.KindTrain && j.priority < pri
		// Among eligible victims: lowest priority wins; among equals, the
		// most recently started (least checkpointed progress to replay).
		if eligible && (victim == nil || j.priority < victimPri ||
			(j.priority == victimPri && j.started.After(victimStart))) {
			victim, victimPri, victimStart = j, j.priority, j.started
		}
		j.mu.Unlock()
	}
	if victim != nil {
		victim.mu.Lock()
		// Re-check under the victim's lock: it may have finished or been
		// cancelled while we scanned.
		if victim.state == api.StateRunning && !victim.preempted && !victim.userCancelled {
			victim.preempted = true
			cancel := victim.ctxCancel
			victim.mu.Unlock()
			r.mu.Unlock()
			cancel()
			return
		}
		victim.mu.Unlock()
	}
	r.mu.Unlock()
}

// requeuePreempted handles a cancelled executor unwind that was caused by
// preemption rather than a user cancel: transition running → queued, arm
// the resume flag, swap in a fresh context, and put the job back at the
// FRONT of its priority class. Reports whether the job was re-enqueued.
func (r *Runner) requeuePreempted(j *Job) bool {
	j.mu.Lock()
	if !j.preempted || j.userCancelled || j.state != api.StateRunning {
		j.mu.Unlock()
		return false
	}
	if err := j.transitionLocked(api.StateQueued); err != nil {
		j.mu.Unlock()
		return false
	}
	j.preempted = false
	j.resume = true
	j.provenance = api.ProvenanceResumed
	j.preemptions++
	j.ctx, j.ctxCancel = context.WithCancel(context.Background())
	j.appendJournalLocked(journalEntry{
		State: api.StateQueued, Event: "preempted",
		Provenance: j.provenance, Resume: true,
	})
	j.logEventLocked(telemetryLine{Event: "preempted", State: string(api.StateQueued)})
	tenant, pri := j.spec.Tenant, j.priority
	j.mu.Unlock()

	telemetry.IncCounter(telemetry.MetricServePreemptions, 1)
	r.q.Requeue(tenant, pri, j)
	return true
}

// isCancelled classifies executor errors that mean "stopped on request".
func isCancelled(err error) bool {
	return errors.Is(err, train.ErrCancelled) || errors.Is(err, context.Canceled)
}

// finish drives the job to its terminal state. The order is the contract:
// the result artifact is made durable first, "finished" is journalled only
// after it, and the state transition — which is what makes the outcome
// observable to Done, State and the API — comes last, so nobody who sees a
// terminal job can find its side effects still pending. Callers release
// the job's tokens and slot before calling (see runJob). Safe to call when
// the job is already terminal (the queued-cancel race).
func (j *Job) finish(state api.State, result *api.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if err != nil {
		j.errMsg = err.Error()
	}
	if result != nil && (state == api.StateDone || state == api.StateCancelled) {
		j.result = result
		b, werr := json.MarshalIndent(result, "", "  ")
		if werr == nil {
			werr = writeFileAtomic(j.arts.Result, append(b, '\n'))
		}
		if werr != nil {
			// Artifact loss must never fail the job; the in-memory result
			// still serves the API until the daemon restarts.
			j.logEventLocked(telemetryLine{Event: "result_lost", Error: werr.Error()})
		}
	}
	j.appendJournalLocked(journalEntry{State: state, Event: "finished", Error: j.errMsg})
	j.logEventLocked(telemetryLine{Event: "finished", State: string(state), Error: j.errMsg})
	j.closeLogsLocked()
	j.transitionLocked(state)
}

// Shutdown stops admission, cancels every non-terminal job (running jobs
// checkpoint at their next epoch boundary), and waits for the dispatcher
// and executors to unwind — or for ctx to expire, in which case the
// remaining goroutines are abandoned to process exit and ctx.Err is
// returned.
func (r *Runner) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	r.draining = true
	r.mu.Unlock()
	for _, j := range r.Jobs() {
		if !j.State().Terminal() {
			// Cancel via the runner so queued jobs transition immediately;
			// Conflict races (job finishing right now) are benign.
			_ = r.Cancel(j.ID())
		}
	}
	r.stopOnce.Do(func() { close(r.stop) })
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
