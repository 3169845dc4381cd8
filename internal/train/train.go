// Package train provides the one training loop every experiment, CLI and
// server job runs: Drive launches a Job's ranks on a Cluster (one goroutine,
// P goroutines, or this process's share of a TCP cluster), each rank's
// worker runs the phases of the data-parallel step — forward/backward with
// per-sample capture on second-order update iterations, gradient
// all-reduce, preconditioner update, apply — and the driver checkpoints,
// recovers from rank failures and records per-epoch metrics and wall-clock
// time.
package train

import (
	"context"
	"time"

	"repro/internal/data"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
)

// Config holds the training hyperparameters.
type Config struct {
	Epochs      int
	BatchSize   int // per worker
	LR          opt.LRSchedule
	Momentum    float64
	WeightDecay float64
	// UpdateFreq is the second-order refresh period in iterations
	// (ignored for first-order methods).
	UpdateFreq int
	// Damping is the preconditioner damping α.
	Damping float64
	// Seed drives weight init, batch order, and stochastic reductions.
	Seed uint64
	// Adam switches the inner optimizer from momentum-SGD to ADAM.
	Adam bool
	// Augment, when non-nil, builds a per-worker training-batch augmenter
	// (random flips/crops); evaluation always uses raw data.
	Augment func(rng *mat.RNG) *data.Augmenter
	// Patience stops training after this many consecutive epochs without
	// improvement of the test metric (0 disables early stopping). In
	// distributed runs the stop decision is made by rank 0 and shared
	// through a collective so all workers exit together.
	Patience int
	// MaxGradNorm clips the global gradient norm before the (pre-)
	// conditioning step when positive.
	MaxGradNorm float64
	// AdaptDamping enables Levenberg-Marquardt damping adjustment between
	// epochs for preconditioners that support it (HyLo): damping shrinks
	// while the epoch loss improves and grows when it regresses. Every
	// worker sees the same (all-reduced) loss, so replicas stay in sync.
	AdaptDamping bool
	// OnEpoch, when non-nil, is invoked on rank 0 after every epoch with
	// that epoch's statistics — the live-progress hook the job server uses
	// for status endpoints and per-job JSONL telemetry. It runs on the
	// training goroutine; keep it cheap.
	OnEpoch func(EpochStat)
}

// dampable is implemented by preconditioners whose damping the trainer may
// adjust (HyLo).
type dampable interface {
	SetDamping(alpha float64)
	CurrentDamping() float64
}

// Task couples a loss with an evaluation metric.
type Task struct {
	Loss nn.Loss
	// Eval returns the scalar quality metric (accuracy, Dice, ...).
	Eval func(logits *mat.Dense, tgt nn.Target) float64
}

// Classification returns the cross-entropy + accuracy task.
func Classification() Task {
	return Task{
		Loss: nn.SoftmaxCrossEntropy{},
		Eval: func(logits *mat.Dense, tgt nn.Target) float64 {
			return nn.Accuracy(logits, tgt.Labels)
		},
	}
}

// Segmentation returns the BCE+Dice loss with Dice-score evaluation.
func Segmentation() Task {
	return Task{
		Loss: nn.BCEDice{DiceWeight: 1},
		Eval: func(logits *mat.Dense, tgt nn.Target) float64 {
			return nn.DiceScore(logits, tgt.Dense, 0.5)
		},
	}
}

// PrecondFactory builds a preconditioner for a freshly constructed network
// replica; nil factories select a first-order method.
type PrecondFactory func(net *nn.Network, comm dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner

// EpochAware is implemented by preconditioners (HyLo) that adapt at epoch
// boundaries.
type EpochAware interface {
	OnEpochStart(epoch int, lrDecayed bool)
}

// EpochStat records per-epoch progress.
type EpochStat struct {
	Epoch     int
	TrainLoss float64
	Metric    float64       // test accuracy or Dice
	Elapsed   time.Duration // cumulative wall time at epoch end
}

// Result aggregates a training run.
type Result struct {
	Method    string
	Stats     []EpochStat
	Timeline  *dist.Timeline
	FinalLoss float64
	Best      float64 // best test metric seen
	// TimeToTarget is the cumulative time at which the target metric was
	// first reached (zero if never).
	TimeToTarget time.Duration
	// StateBytes reports optimizer+preconditioner state (Table IV).
	StateBytes int
	// EpochModes records HyLo's per-epoch KID/KIS choice when applicable.
	EpochModes []string
}

// Job is one training run: what to train, on what, and how it is scored.
// Where it runs is the Cluster's business, how it is checkpointed the
// ElasticConfig's.
type Job struct {
	Config Config
	// Build constructs one replica; every rank calls it with the same seed.
	Build       func(rng *mat.RNG) *nn.Network
	Train, Test *data.Dataset
	Task        Task
	// Precond may be nil (first-order method).
	Precond PrecondFactory
	// Target is the test metric at which TimeToTarget stops (0: never).
	Target float64
}

// must unwraps a Drive result for the two adapters whose frozen signatures
// have no error to return: a failed run panics with the driver's error,
// which is what an unrecovered worker panic does to their callers.
func must(res Result, err error) Result {
	if err != nil {
		panic(err)
	}
	return res
}

// Run is Drive on one local rank without checkpoints. It exists, with this
// signature, only because perf/harness/train_e2e.go (a frozen module)
// compiles against it: only perf/ calls it, everything else calls Drive.
func Run(cfg Config, buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) Result {
	return must(Drive(context.Background(), Local(),
		Job{cfg, buildNet, trainSet, testSet, task, makePre, target}, ElasticConfig{}))
}

// RunDistributed is Drive on an in-process cluster of p ranks without
// checkpoints; like Run, only perf/ calls it.
func RunDistributed(p int, cfg Config, buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) Result {
	return must(Drive(context.Background(), InProcess(dist.NewCluster(p)),
		Job{cfg, buildNet, trainSet, testSet, task, makePre, target}, ElasticConfig{}))
}

// RunElasticProc is Drive on this process's share of a TCP cluster; like
// Run, only perf/ calls it. Only the process hosting global rank 0 returns
// a populated Result.
func RunElasticProc(proc *distnet.Proc, cfg Config, ec ElasticConfig,
	buildNet func(rng *mat.RNG) *nn.Network,
	trainSet, testSet *data.Dataset, task Task,
	makePre PrecondFactory, target float64) (Result, error) {
	return Drive(context.Background(), OverTCP(proc),
		Job{cfg, buildNet, trainSet, testSet, task, makePre, target}, ec)
}

// Evaluate computes the task metric over the whole test set in chunks.
func Evaluate(net *nn.Network, testSet *data.Dataset, task Task) float64 {
	const chunk = 256
	n := testSet.Len()
	var sum float64
	var cnt int
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, tgt := testSet.Batch(idx)
		out := net.Forward(x, false)
		sum += task.Eval(out, tgt) * float64(hi-lo)
		cnt += hi - lo
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
