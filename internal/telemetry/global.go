package telemetry

import (
	"sync/atomic"
	"time"
)

// Telemetry bundles a metric registry with a tracer; the process-global
// default instance is what the instrumented packages (train, core, dist,
// kfac, sngd, kbfgs) write into when telemetry is enabled.
type Telemetry struct {
	Metrics *Registry
	Trace   *Tracer
}

// New returns a fresh, independent Telemetry instance.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Trace: NewTracer()}
}

var (
	enabled atomic.Bool
	global  atomic.Pointer[Telemetry]
)

func init() {
	global.Store(New())
}

// Default returns the process-global instance. It always exists; whether
// the instrumentation helpers write into it is governed by Enabled().
func Default() *Telemetry { return global.Load() }

// SetDefault replaces the process-global instance (tests, or a run that
// wants a fresh epoch for its trace clock).
func SetDefault(t *Telemetry) {
	if t == nil {
		t = New()
	}
	global.Store(t)
}

// Enabled reports whether the global instrumentation helpers record.
// This is the cheap guard hot paths check — one atomic load.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns global recording on or off.
func SetEnabled(on bool) { enabled.Store(on) }

// noopEnd is returned by Span when disabled so callers can
// unconditionally defer the result.
var noopEnd = func() {}

// Span opens a span on the default tracer and returns its end function;
// a no-op when telemetry is disabled.
func Span(name string, tid int, labels ...Label) func() {
	if !Enabled() {
		return noopEnd
	}
	return Default().Trace.Span(name, tid, labels...)
}

// RecordSpan records a just-ended region of the given duration on the
// default tracer when enabled — for call sites that already timed the
// region themselves (the preconditioners' phase timers). The start offset
// is reconstructed from the tracer clock's current reading.
func RecordSpan(name string, tid int, dur time.Duration, labels ...Label) {
	if !Enabled() {
		return
	}
	tr := Default().Trace
	end := tr.Now()
	tr.Record(name, tid, end-dur, dur, labels...)
}

// Instant records a point event on the default tracer when enabled.
func Instant(name string, tid int, labels ...Label) {
	if !Enabled() {
		return
	}
	Default().Trace.Instant(name, tid, labels...)
}

// IncCounter adds n to a default-registry counter when enabled.
func IncCounter(name string, n int64, labels ...Label) {
	if !Enabled() {
		return
	}
	Default().Metrics.Counter(name, labels...).Add(n)
}

// SetGauge stores v into a default-registry gauge when enabled.
func SetGauge(name string, v float64, labels ...Label) {
	if !Enabled() {
		return
	}
	Default().Metrics.Gauge(name, labels...).Set(v)
}

// Observe records v into a default-registry histogram (TimeBuckets
// bounds) when enabled.
func Observe(name string, v float64, labels ...Label) {
	if !Enabled() {
		return
	}
	Default().Metrics.Histogram(name, nil, labels...).Observe(v)
}

// Metric names shared by the instrumented packages, so exporter output
// and dashboards agree on one vocabulary.
const (
	// MetricCommBytes counts collective payload bytes per participant,
	// labeled op=allreduce|allgather|broadcast.
	MetricCommBytes = "dist_comm_bytes_total"
	// MetricCommCalls counts collective invocations per participant.
	MetricCommCalls = "dist_comm_calls_total"
	// MetricWorkerFailures counts worker panics recovered by the cluster.
	MetricWorkerFailures = "dist_worker_failures_total"
	// MetricModeSwitches counts HyLo KID↔KIS transitions.
	MetricModeSwitches = "hylo_mode_switches_total"
	// MetricTrainIterations counts optimizer steps on rank 0.
	MetricTrainIterations = "train_iterations_total"
	// MetricTrainLoss is the latest epoch-mean training loss.
	MetricTrainLoss = "train_loss"
	// MetricTestMetric is the latest evaluation metric (accuracy/Dice).
	MetricTestMetric = "train_test_metric"
	// MetricEpoch is the current epoch index.
	MetricEpoch = "train_epoch"

	// MetricCkptWrites counts checkpoints published (atomic renames).
	MetricCkptWrites = "ckpt_writes_total"
	// MetricCkptRestores counts snapshots successfully loaded.
	MetricCkptRestores = "ckpt_restores_total"
	// MetricCkptCorrupt counts snapshots rejected by checksum/decode and
	// quarantined during load.
	MetricCkptCorrupt = "ckpt_corrupt_total"
	// MetricCkptErrors counts failed checkpoint writes (training continues).
	MetricCkptErrors = "ckpt_errors_total"
	// MetricCkptRetentionErrors counts snapshot deletions (and retention
	// sweeps) that failed — stale files accumulating on disk instead of
	// being reclaimed.
	MetricCkptRetentionErrors = "ckpt_retention_errors_total"
	// MetricFaultsInjected counts faults delivered by the chaos layer,
	// labeled kind=panic|bitflip|delay.
	MetricFaultsInjected = "dist_faults_injected_total"
	// MetricBarrierWatchdog counts barrier hangs converted into poisoning
	// by the watchdog timeout.
	MetricBarrierWatchdog = "dist_barrier_watchdog_total"
	// MetricRecoveries counts elastic restarts that reloaded a checkpoint
	// after a worker failure.
	MetricRecoveries = "train_recoveries_total"
	// MetricNonfiniteSkips counts iterations whose loss/gradient went
	// NaN/Inf, where the preconditioned update was skipped in favor of a
	// sanitized first-order fallback step.
	MetricNonfiniteSkips = "train_nonfinite_skips"

	// MetricNumericsRetries counts Levenberg-Marquardt damping-escalation
	// retries at solve sites, labeled site=<package.site>.
	MetricNumericsRetries = "numerics_damping_retries_total"
	// MetricNumericsFallbacks counts degradation-ladder firings, labeled
	// site=<package.site> and rung=damped-retry|exact-kid|kis|diagonal|identity.
	MetricNumericsFallbacks = "numerics_fallbacks_total"
	// MetricNumericsScrubs counts non-finite values zeroed out of tensors
	// by the numerical-health plumbing.
	MetricNumericsScrubs = "numerics_nonfinite_scrubs_total"
	// MetricNumericsCond is the latest 1-norm condition estimate per solve
	// site, labeled site=<package.site>.
	MetricNumericsCond = "numerics_cond_estimate"
	// MetricKIDSketchNS accumulates nanoseconds spent in sketched KID
	// factorizations, labeled sketch=gauss|srht.
	MetricKIDSketchNS = "kid_sketch_ns"
	// MetricKIDSketchFallbacks counts sketched KID factorizations rejected
	// by the condition/residual guard and redone with the exact
	// interpolative decomposition, labeled sketch=gauss|srht.
	MetricKIDSketchFallbacks = "kid_sketch_fallbacks"

	// MetricSchedOverlap accumulates stage-busy nanoseconds in excess of
	// wall time per scheduled preconditioner update — the compute/comm time
	// hidden by layer-parallel execution. Busy time includes the time the
	// dispatcher spends blocked in collectives.
	MetricSchedOverlap = "sched_overlap_ns"
	// MetricSchedTokensInUse is the current number of compute tokens
	// checked out of the process-wide scheduler pool (stage workers plus
	// extra GEMM workers).
	MetricSchedTokensInUse = "sched_tokens_in_use"

	// MetricServeJobsRunning is the number of jobs currently executing on
	// the hylo-serve job pool (token held, training in progress).
	MetricServeJobsRunning = "serve_jobs_running"
	// MetricServeQueueDepth is the number of submitted jobs waiting in the
	// per-tenant fair queue (admitted but not yet dispatched).
	MetricServeQueueDepth = "serve_queue_depth"
	// MetricServeJobDuration is a histogram of job wall-clock durations in
	// nanoseconds (dispatch to terminal state), labeled
	// state=done|failed|cancelled.
	MetricServeJobDuration = "serve_job_duration_ns"
	// MetricServeJobsTotal counts jobs reaching a terminal state, labeled
	// state=done|failed|cancelled.
	MetricServeJobsTotal = "serve_jobs_total"
	// MetricServeJobsRecovered counts jobs re-enqueued by the restart
	// recovery scan, labeled kind=resumed|restart|requeued.
	MetricServeJobsRecovered = "serve_jobs_recovered_total"
	// MetricServePreemptions counts running jobs checkpoint-preempted in
	// favor of a higher-priority submission.
	MetricServePreemptions = "serve_preemptions_total"
	// MetricServeGCReclaimed accumulates artifact bytes deleted by the
	// retention sweeper.
	MetricServeGCReclaimed = "serve_gc_bytes_reclaimed_total"

	// MetricNetBytes counts TCP transport bytes framed on/off the wire,
	// labeled dir=tx|rx (per process, framing overhead included).
	MetricNetBytes = "distnet_bytes_total"
	// MetricNetRetries counts transport recovery actions, labeled
	// kind=dial|reconnect|retransmit.
	MetricNetRetries = "distnet_retries_total"
	// MetricNetRTT is a histogram of heartbeat round-trip times in
	// nanoseconds, one sample per acknowledged probe.
	MetricNetRTT = "distnet_rtt_ns"
	// MetricNetRankBytes counts TCP transport bytes per hosting process,
	// labeled dir=tx|rx and rank=<base rank> — the per-rank breakdown of
	// MetricNetBytes used by the -telemetry-summary network section.
	MetricNetRankBytes = "distnet_rank_bytes_total"
	// MetricNetTreeDepth is a gauge of this process's depth in the
	// tree-topology reduction tree (0 = root/coordinator; unset under hub).
	MetricNetTreeDepth = "distnet_tree_depth"
)

// RTTBucketsNS is the bucket layout for network round-trip times in
// nanoseconds, spanning 10 µs to 10 s logarithmically — the
// distnet_rtt_ns layout (heartbeats ride the same sockets as collective
// frames, so RTTs range from loopback microseconds to multi-second
// stalls under faults).
var RTTBucketsNS = []float64{
	1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5,
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9, 1e10,
}

// DurationBucketsNS is the bucket layout for job-scale durations in
// nanoseconds, spanning 1 ms to 100 s logarithmically — the hylo-serve
// serve_job_duration_ns layout.
var DurationBucketsNS = []float64{
	1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7,
	1e8, 2.5e8, 5e8, 1e9, 2.5e9, 5e9,
	1e10, 2.5e10, 5e10, 1e11,
}
