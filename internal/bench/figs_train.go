package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// workload bundles a substitute model with its dataset and training
// configuration.
type workload struct {
	name    string
	build   func(rng *mat.RNG) *nn.Network
	trainD  *data.Dataset
	testD   *data.Dataset
	task    train.Task
	cfg     train.Config
	target  float64
	workers int
}

// denseNetWorkload is the DenseNet/CIFAR-100 substitute (Fig. 4a).
func denseNetWorkload(cfg RunConfig) workload {
	classes, per, epochs, width := 10, 60, 10, 4
	if cfg.Quick {
		classes, per, epochs, width = 4, 30, 4, 2
	}
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.35})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+1), ds, 0.25)
	return workload{
		name:   "DenseNet",
		build:  func(rng *mat.RNG) *nn.Network { return models.DenseNetLite(shape, width, classes, rng) },
		trainD: tr, testD: te, task: train.Classification(),
		cfg: train.Config{
			Epochs: epochs, BatchSize: 32,
			LR:       opt.LRSchedule{Base: 0.03, DecayAt: []int{epochs * 2 / 3}, Gamma: 0.1},
			Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
		},
		target: 0.75, workers: 1,
	}
}

// threeC1FWorkload is the 3C1F/Fashion-MNIST substitute (Fig. 4b).
func threeC1FWorkload(cfg RunConfig) workload {
	classes, per, epochs, width := 10, 60, 10, 6
	if cfg.Quick {
		classes, per, epochs, width = 4, 30, 4, 4
	}
	shape := nn.Shape{C: 1, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+2), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+3), ds, 0.25)
	return workload{
		name:   "3C1F",
		build:  func(rng *mat.RNG) *nn.Network { return models.ThreeC1F(shape, width, classes, rng) },
		trainD: tr, testD: te, task: train.Classification(),
		cfg: train.Config{
			Epochs: epochs, BatchSize: 32,
			LR:       opt.LRSchedule{Base: 0.03, DecayAt: []int{epochs * 2 / 3}, Gamma: 0.1},
			Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
		},
		target: 0.9, workers: 1,
	}
}

// resnet50Workload is the ResNet-50/ImageNet substitute at 8 (quick: 2)
// simulated workers.
func resnet50Workload(cfg RunConfig) workload {
	classes, per, epochs, n, w, p := 8, 48, 8, 2, 8, 8
	if cfg.Quick {
		classes, per, epochs, n, w, p = 4, 24, 3, 1, 4, 2
	}
	shape := nn.Shape{C: 3, H: 16, W: 16}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+4), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.35})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+5), ds, 0.25)
	return workload{
		name:   "ResNet-50(sub)",
		build:  func(rng *mat.RNG) *nn.Network { return models.ResNetCIFAR(shape, n, w, classes, rng) },
		trainD: tr, testD: te, task: train.Classification(),
		cfg: train.Config{
			Epochs: epochs, BatchSize: 8,
			LR:       opt.LRSchedule{Base: 0.03, DecayAt: []int{epochs * 2 / 3}, Gamma: 0.1},
			Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
		},
		target: 0.7, workers: p,
	}
}

// resnet32Workload is the ResNet-32/CIFAR-10 substitute at 4 workers.
func resnet32Workload(cfg RunConfig) workload {
	classes, per, epochs, n, w, p := 6, 48, 8, 1, 6, 4
	if cfg.Quick {
		classes, per, epochs, n, w, p = 3, 24, 3, 1, 4, 2
	}
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+6), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+7), ds, 0.25)
	return workload{
		name:   "ResNet-32(sub)",
		build:  func(rng *mat.RNG) *nn.Network { return models.ResNetCIFAR(shape, n, w, classes, rng) },
		trainD: tr, testD: te, task: train.Classification(),
		cfg: train.Config{
			Epochs: epochs, BatchSize: 8,
			LR:       opt.LRSchedule{Base: 0.03, DecayAt: []int{epochs * 2 / 3}, Gamma: 0.1},
			Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
		},
		target: 0.8, workers: p,
	}
}

// unetWorkload is the U-Net/LGG segmentation substitute at 4 workers.
func unetWorkload(cfg RunConfig) workload {
	n, epochs, width, p := 96, 8, 3, 4
	if cfg.Quick {
		n, epochs, width, p = 48, 3, 2, 2
	}
	shape := nn.Shape{C: 1, H: 12, W: 12}
	ds := data.SynthSegmentation(mat.NewRNG(cfg.Seed+8), data.SegSpec{
		N: n, Shape: shape, Noise: 0.4})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+9), ds, 0.25)
	return workload{
		name:   "U-Net(sub)",
		build:  func(rng *mat.RNG) *nn.Network { return models.MiniUNet(shape, width, rng) },
		trainD: tr, testD: te, task: train.Segmentation(),
		cfg: train.Config{
			Epochs: epochs, BatchSize: 8,
			LR:       opt.LRSchedule{Base: 0.05, Gamma: 1},
			Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
		},
		target: 0.6, workers: p,
	}
}

// method is a named optimizer/preconditioner configuration.
type method struct {
	name string
	adam bool
	pre  train.PrecondFactory
}

// optimizerOf maps a figure's method label onto its cliutil optimizer name.
var optimizerOf = map[string]string{
	"SGD": "sgd", "ADAM": "adam", "KFAC": "kfac", "EKFAC": "ekfac",
	"KBFGS-L": "kbfgs", "SNGD": "sngd", "HyLo": "hylo", "Random": "hylo-random",
}

// opts are the preconditioner hyperparameters every experiment trains
// with unless it sweeps one: damping 0.1, rank 10%, η = 0.25, the default
// ID tolerance, and the -kid-sketch selection of hylo-bench (which
// validated the mode string, so a parse error cannot occur here).
func (cfg RunConfig) opts() cliutil.PrecondOpts {
	sketch, _ := cliutil.ParseKidSketch(cfg.KidSketch)
	return cliutil.PrecondOpts{Damping: 0.1, RankFrac: 0.1, Eta: 0.25, IDTol: core.DefaultIDTol,
		KidSketch: sketch, KidOversample: cfg.KidOversample}
}

// precondFactory builds an optimizer's factory through cliutil's name →
// constructor table; the names are literals of this package.
func precondFactory(optimizer string, o cliutil.PrecondOpts) train.PrecondFactory {
	f, err := cliutil.PrecondFactory(optimizer, o)
	if err != nil {
		panic(err)
	}
	return f
}

func (cfg RunConfig) methods(which []string) []method {
	o := cfg.opts()
	var out []method
	for _, w := range which {
		out = append(out, method{name: w, adam: w == "ADAM", pre: precondFactory(optimizerOf[w], o)})
	}
	return out
}

// run trains the workload under cfg and pre on the cluster its worker
// count asks for. Experiments have no error path: a failed run panics.
func (w workload) run(cfg train.Config, pre train.PrecondFactory, target float64) train.Result {
	cluster := train.Local()
	if w.workers > 1 {
		cluster = train.InProcess(dist.NewCluster(w.workers))
	}
	res, err := train.Drive(context.Background(), cluster, train.Job{Config: cfg, Build: w.build,
		Train: w.trainD, Test: w.testD, Task: w.task, Precond: pre, Target: target}, train.ElasticConfig{})
	if err != nil {
		panic(err)
	}
	return res
}

// runMethod executes a workload under one method.
func runMethod(w workload, m method) train.Result {
	cfg := w.cfg
	cfg.Adam = m.adam
	return w.run(cfg, m.pre, w.target)
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// Fig4SingleGPU reproduces Fig. 4: single-GPU accuracy/time for HyLo vs
// KFAC, EKFAC, KBFGS-L, SGD, ADAM on the DenseNet and 3C1F substitutes.
func Fig4SingleGPU(cfg RunConfig) *Table {
	t := &Table{ID: "fig4", Title: "Single-GPU accuracy vs time",
		Headers: []string{"model", "method", "best acc", "final acc", "time-to-target", "total time"}}
	for _, w := range []workload{denseNetWorkload(cfg), threeC1FWorkload(cfg)} {
		for _, m := range cfg.methods([]string{"HyLo", "KFAC", "EKFAC", "KBFGS-L", "SGD", "ADAM"}) {
			res := runMethod(w, m)
			last := res.Stats[len(res.Stats)-1]
			t.AddRow(w.name, m.name, fmtF(res.Best), fmtF(last.Metric),
				fmtDur(res.TimeToTarget), fmtDur(last.Elapsed))
		}
	}
	t.AddNote("paper: HyLo reaches the target first and attains the best accuracy on both models")
	return t
}

// Fig5TimeToAccuracy reproduces Fig. 5: multi-worker accuracy/time for
// HyLo vs KAISA (distributed KFAC), SGD, ADAM.
func Fig5TimeToAccuracy(cfg RunConfig) *Table {
	t := &Table{ID: "fig5", Title: "Multi-GPU accuracy vs time",
		Headers: []string{"model", "P", "method", "best acc", "time-to-target", "total time"}}
	for _, w := range []workload{resnet50Workload(cfg), unetWorkload(cfg), resnet32Workload(cfg)} {
		for _, m := range cfg.methods([]string{"HyLo", "KFAC", "SGD", "ADAM"}) {
			name := m.name
			if name == "KFAC" {
				name = "KAISA"
			}
			res := runMethod(w, m)
			last := res.Stats[len(res.Stats)-1]
			t.AddRow(w.name, fmt.Sprint(w.workers), name, fmtF(res.Best),
				fmtDur(res.TimeToTarget), fmtDur(last.Elapsed))
		}
	}
	t.AddNote("paper: HyLo converges 1.4-2.1x faster than KAISA and up to 2.4x faster than first-order methods")
	return t
}

// Fig6AccuracyPerEpoch reproduces Fig. 6: the per-epoch accuracy curves of
// the Fig. 5 runs.
func Fig6AccuracyPerEpoch(cfg RunConfig) *Table {
	t := &Table{ID: "fig6", Title: "Multi-GPU accuracy vs epoch",
		Headers: []string{"model", "method", "epoch", "test metric"}}
	for _, w := range []workload{resnet50Workload(cfg), unetWorkload(cfg), resnet32Workload(cfg)} {
		for _, m := range cfg.methods([]string{"HyLo", "KFAC", "SGD", "ADAM"}) {
			name := m.name
			if name == "KFAC" {
				name = "KAISA"
			}
			res := runMethod(w, m)
			for _, st := range res.Stats {
				t.AddRow(w.name, name, fmt.Sprint(st.Epoch), fmtF(st.Metric))
			}
		}
	}
	return t
}

// Table3Switching reproduces Table III: HyLo's gradient-based switching vs
// the Random ablation on the three multi-worker substitutes.
func Table3Switching(cfg RunConfig) *Table {
	t := &Table{ID: "table3", Title: "HyLo vs Random switching",
		Headers: []string{"model", "HyLo acc", "Random acc", "HyLo time", "Random time", "HyLo modes"}}
	for _, w := range []workload{resnet50Workload(cfg), resnet32Workload(cfg), unetWorkload(cfg)} {
		hylo := runMethod(w, cfg.methods([]string{"HyLo"})[0])
		random := runMethod(w, cfg.methods([]string{"Random"})[0])
		modes := ""
		for _, m := range hylo.EpochModes {
			if m == "KID" {
				modes += "D"
			} else {
				modes += "S"
			}
		}
		t.AddRow(w.name,
			fmtF(hylo.Best), fmtF(random.Best),
			fmtDur(hylo.Stats[len(hylo.Stats)-1].Elapsed),
			fmtDur(random.Stats[len(random.Stats)-1].Elapsed),
			modes)
	}
	t.AddNote("paper: Random matches accuracy on ResNet-50 but is 7.5-91%% slower; modes string: D=KID, S=KIS per epoch")
	return t
}
