package harness

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// Transport is how a training workload's ranks exchange data.
type Transport int

const (
	// Local is one rank on dist.Local: the trainer issues no collectives.
	Local Transport = iota
	// InProc is train.RunDistributed's in-process cluster.
	InProc
	// TCP is one distnet.Proc per rank over loopback, hub topology.
	TCP
)

// TrainSpec freezes one training workload. Every field is an input the
// program receives; nothing here is read by the program itself.
type TrainSpec struct {
	Name string

	// Model is "mlp" (models.MLP, Depth hidden layers of Width) or
	// "resnet" (models.ResNetCIFAR(3×16×16, 2, 8)).
	Model        string
	Width, Depth int

	Classes, PerClass, Dim int
	Noise, TestFrac        float64

	Optimizer string // a cliutil.PrecondFactory name
	Eta       float64
	Ranks     int
	Transport Transport

	GlobalBatch int // split evenly over Ranks
	UpdateFreq  int
	LR          float64

	// Epochs is the length of one end-to-end operation: epoch 0 warms
	// pools and lazy workspaces and belongs to set-up; epochs 1…Epochs−1
	// are timed. It is short so that a run repeats it several times.
	Epochs int
	// CkptEvery is the checkpoint cadence of the TCP workload.
	CkptEvery int
	// MaxLoss and MinBest are the correctness limits on the final loss and
	// the best test accuracy of an end-to-end operation.
	MaxLoss, MinBest float64

	// TelemetryAB makes the traced run also time steps with the program's
	// telemetry on against off.
	TelemetryAB bool

	// TraceEpochs is the length of the traced run's one long operation,
	// which must reach Target, the test accuracy time-to-target stops at.
	TraceEpochs int
	Target      float64
}

// ServeSpec freezes the job-server workload.
type ServeSpec struct {
	Name    string
	Clients int // closed-loop clients, one tenant each
	Tokens  int // runner compute tokens
	Rounds  int // fresh server boots per run; --seconds is split over them
	Warmup  int // untimed jobs after each boot

	// The job every client submits.
	Model, Optimizer string
	Epochs           int
	Classes, Samples int

	// ReadEvery makes every n-th iteration also GET /v1/jobs and /metrics.
	ReadEvery int
}

const (
	deepWidth = 256
	deepDepth = 7 // hidden layers; with the classifier, 8 kernel layers
)

// deepTask is the task every *_deep_* workload shares — same data, seed
// derivation, model and global batch — so their numbers compare directly.
func deepTask(name, optimizer string, ranks int, tr Transport) TrainSpec {
	return TrainSpec{
		Name:  name,
		Model: "mlp", Width: deepWidth, Depth: deepDepth,
		Classes: 10, PerClass: 64, Dim: 256, Noise: 0.3, TestFrac: 0.2,
		Optimizer: optimizer, Eta: 0.25, Ranks: ranks, Transport: tr,
		GlobalBatch: 256, UpdateFreq: 1, LR: 0.03,
		// 1 + 4 epochs: the TCP workload's checkpoint falls on the last.
		Epochs: 5, CkptEvery: 5, MaxLoss: 1.2, MinBest: 0.6,
		TraceEpochs: 9, Target: 0.8,
	}
}

// TrainSpecs returns the five training workloads at benchmark size.
func TrainSpecs() []TrainSpec {
	cnn := TrainSpec{
		Name:  "cnn_local",
		Model: "resnet",
		// 8 classes × 32 images of 3×16×16: 192 train / 64 test, so an
		// epoch is 3 steps of batch 64 and an operation fits the run.
		Classes: 8, PerClass: 32, Noise: 0.3, TestFrac: 0.25,
		// Eta 0.5 makes the paper's gradient-switch policy choose both KID
		// and KIS epochs on this short run (0.25 stays in KID throughout).
		Optimizer: "hylo", Eta: 0.5, Ranks: 1, Transport: Local,
		GlobalBatch: 64, UpdateFreq: 5, LR: 0.03,
		Epochs: 5, MaxLoss: 2.0, MinBest: 0.25,
		// Of 30 seeds the slowest met the target in its 6th epoch, the rest
		// by their 4th; 10 leaves room for a seed slower still.
		TraceEpochs: 10, Target: 0.4,
	}
	kfac := deepTask("kfac_deep_local", "kfac", 1, Local)
	// KFAC needs more epochs than KID for the same accuracy, so its limits
	// and its target are lower.
	kfac.MaxLoss, kfac.MinBest, kfac.Target = 2.0, 0.4, 0.6
	inproc := deepTask("kid_deep_inproc_p2", "hylo-kid", 2, InProc)
	inproc.TelemetryAB = true
	return []TrainSpec{
		cnn,
		deepTask("kid_deep_local", "hylo-kid", 1, Local),
		inproc,
		deepTask("kid_deep_tcp_p2", "hylo-kid", 2, TCP),
		kfac,
	}
}

// ServeSpecs returns the job-server workload at benchmark size.
func ServeSpecs() []ServeSpec {
	return []ServeSpec{{
		Name: "serve_closed2", Clients: 2, Tokens: 2, Rounds: 5, Warmup: 4,
		Model: "mlp", Optimizer: "hylo", Epochs: 3, Classes: 4, Samples: 4,
		ReadEvery: 10,
	}}
}

// Smoke shrinks a training workload to toy size for the self-tests: same
// code paths and checks, seconds become milliseconds.
func (s TrainSpec) Smoke() TrainSpec {
	if s.Model == "mlp" {
		s.Width, s.Depth, s.Dim = 24, 2, 24
		s.PerClass, s.GlobalBatch = 16, 32
	} else {
		s.PerClass, s.GlobalBatch = 8, 16
	}
	s.Epochs, s.TraceEpochs, s.CkptEvery = 3, 3, 2
	s.Target, s.MinBest, s.MaxLoss = 0.05, 0.05, 10
	return s
}

// Smoke shrinks the job-server workload to toy size.
func (s ServeSpec) Smoke() ServeSpec {
	s.Rounds, s.Warmup, s.ReadEvery = 2, 1, 2
	s.Epochs = 2
	return s
}

// WorkloadNames lists the six workloads in the order a full run uses.
func WorkloadNames() []string {
	var names []string
	for _, s := range TrainSpecs() {
		names = append(names, s.Name)
	}
	for _, s := range ServeSpecs() {
		names = append(names, s.Name)
	}
	return names
}

// ContractWorkloadNames lists the workloads BENCHMARK.json gates: the five
// training workloads. serve_closed2 spends half its processor time in the
// kernel (file creation, fsync, loopback HTTP), and on the reference box that
// half moves with the host: its throughput spread 8–28 % between the
// quartiles of ten runs where the training workloads spread 2–10 %, over the
// largest bound the contract allows. By the issue's rule for a number that
// does not repeat, its end-to-end metrics are per-layer metrics only
// (serve.jobs_per_s, serve.job_latency_p50_ms); -all still runs it.
func ContractWorkloadNames() []string {
	var names []string
	for _, s := range TrainSpecs() {
		names = append(names, s.Name)
	}
	return names
}

// preLayer names the layer the workload's preconditioner belongs to, the
// prefix of its update/precondition/state metrics.
func (s TrainSpec) preLayer() string {
	if s.Optimizer == "kfac" {
		return "kfac"
	}
	return "core"
}

// StepsPerEpoch is how many optimizer steps one epoch of the workload takes.
func (s TrainSpec) StepsPerEpoch() int {
	nTrain := s.Classes*s.PerClass - int(float64(s.Classes*s.PerClass)*s.TestFrac)
	return nTrain / s.GlobalBatch
}

// task is the generated input of one operation: the data, the model
// builder and the trainer configuration, all derived from the seed.
type task struct {
	spec    TrainSpec
	train   *data.Dataset
	test    *data.Dataset
	build   func(rng *mat.RNG) *nn.Network
	makePre train.PrecondFactory
	cfg     train.Config
}

// newTask generates the workload's inputs from seed. The same seed gives
// the same data, initial weights and batch order.
func newTask(s TrainSpec, seed uint64) (*task, error) {
	t := &task{spec: s}
	switch s.Model {
	case "mlp":
		ds := data.SynthVectors(mat.NewRNG(seed+100), s.Classes, s.PerClass, s.Dim, s.Noise)
		t.train, t.test = data.Split(mat.NewRNG(seed+101), ds, s.TestFrac)
		hidden := make([]int, s.Depth)
		for i := range hidden {
			hidden[i] = s.Width
		}
		in, classes := nn.Vec(s.Dim), s.Classes
		t.build = func(rng *mat.RNG) *nn.Network { return models.MLP(in, hidden, classes, rng) }
	case "resnet":
		shape := nn.Shape{C: 3, H: 16, W: 16}
		ds := data.SynthImages(mat.NewRNG(seed+100), data.ClassSpec{
			Classes: s.Classes, PerClass: s.PerClass, Shape: shape, Noise: s.Noise})
		t.train, t.test = data.Split(mat.NewRNG(seed+101), ds, s.TestFrac)
		classes := s.Classes
		t.build = func(rng *mat.RNG) *nn.Network { return models.ResNetCIFAR(shape, 2, 8, classes, rng) }
	default:
		return nil, fmt.Errorf("workload %s: unknown model %q", s.Name, s.Model)
	}
	if s.GlobalBatch%s.Ranks != 0 || s.StepsPerEpoch() < 1 {
		return nil, fmt.Errorf("workload %s: batch %d does not fit %d ranks and %d train samples",
			s.Name, s.GlobalBatch, s.Ranks, t.train.Len())
	}
	const damping = 0.1
	pre, err := cliutil.PrecondFactory(s.Optimizer, cliutil.PrecondOpts{
		Damping: damping, RankFrac: 0.1, Eta: s.Eta})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	t.makePre = pre
	t.cfg = train.Config{
		Epochs: s.Epochs, BatchSize: s.GlobalBatch / s.Ranks,
		LR:       opt.LRSchedule{Base: s.LR, Gamma: 0.1},
		Momentum: 0.9, UpdateFreq: s.UpdateFreq, Damping: damping, Seed: seed,
	}
	return t, nil
}
