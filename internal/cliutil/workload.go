package cliutil

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kbfgs"
	"repro/internal/kfac"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/sngd"
	"repro/internal/train"
)

// dataKind is which synthetic generator feeds a workload.
type dataKind int

const (
	vectors dataKind = iota // data.SynthVectors, 4·perClass samples a class
	images                  // data.SynthImages
	masks                   // data.SynthSegmentation, classes·perClass samples
)

// workloads is the one table behind Models and BuildWorkload, in the order
// the CLIs document the models.
var workloads = []struct {
	name   string
	shape  nn.Shape
	kind   dataKind
	build  func(shape nn.Shape, classes int, rng *mat.RNG) *nn.Network
	task   func() train.Task
	target float64
}{
	{"3c1f", nn.Shape{C: 1, H: 16, W: 16}, images, func(s nn.Shape, classes int, rng *mat.RNG) *nn.Network {
		return models.ThreeC1F(s, 8, classes, rng)
	}, train.Classification, 0.9},
	{"mlp", nn.Vec(32), vectors, func(s nn.Shape, classes int, rng *mat.RNG) *nn.Network {
		return models.MLP(s, []int{64, 32}, classes, rng)
	}, train.Classification, 0.9},
	{"resnet", nn.Shape{C: 3, H: 16, W: 16}, images, func(s nn.Shape, classes int, rng *mat.RNG) *nn.Network {
		return models.ResNetCIFAR(s, 2, 8, classes, rng)
	}, train.Classification, 0.85},
	{"densenet", nn.Shape{C: 3, H: 16, W: 16}, images, func(s nn.Shape, classes int, rng *mat.RNG) *nn.Network {
		return models.DenseNetLite(s, 6, classes, rng)
	}, train.Classification, 0.75},
	{"unet", nn.Shape{C: 1, H: 16, W: 16}, masks, func(s nn.Shape, _ int, rng *mat.RNG) *nn.Network {
		return models.MiniUNet(s, 4, rng)
	}, train.Segmentation, 0.8},
	{"vit", nn.Shape{C: 1, H: 16, W: 16}, images, func(s nn.Shape, classes int, rng *mat.RNG) *nn.Network {
		return models.TransformerLite(s, 4, 12, 2, classes, rng)
	}, train.Classification, 0.85},
}

// Models lists the workload model names accepted by BuildWorkload, in the
// order the CLIs document them.
func Models() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// Optimizers lists the optimizer names accepted by PrecondFactory.
func Optimizers() []string {
	return []string{"sgd", "adam", "kfac", "kaisa", "ekfac", "kbfgs",
		"sngd", "hylo", "hylo-kid", "hylo-kis", "hylo-random"}
}

// Workload is a fully assembled training scenario: a network builder, the
// train/test split, the task (loss + metric), and the target metric at
// which time-to-target stops.
type Workload struct {
	Build  func(rng *mat.RNG) *nn.Network
	Train  *data.Dataset
	Test   *data.Dataset
	Task   train.Task
	Target float64
}

// Job is the training job of this workload under cfg and the given
// preconditioner factory (nil: first-order).
func (w Workload) Job(cfg train.Config, pre train.PrecondFactory) train.Job {
	return train.Job{Config: cfg, Build: w.Build, Train: w.Train, Test: w.Test,
		Task: w.Task, Precond: pre, Target: w.Target}
}

// BuildWorkload assembles the named synthetic workload. Every front end
// (CLI flags, server job specs) goes through here so a model name means
// the same dataset, architecture, and target everywhere.
func BuildWorkload(model string, classes, perClass int, seed uint64) (Workload, error) {
	for _, w := range workloads {
		if w.name != model {
			continue
		}
		var ds *data.Dataset
		rng := mat.NewRNG(seed + 100)
		switch w.kind {
		case vectors:
			ds = data.SynthVectors(rng, classes, perClass*4, w.shape.Numel(), 0.3)
		case images:
			ds = data.SynthImages(rng, data.ClassSpec{
				Classes: classes, PerClass: perClass, Shape: w.shape, Noise: 0.3})
		case masks:
			ds = data.SynthSegmentation(rng, data.SegSpec{
				N: classes * perClass, Shape: w.shape, Noise: 0.4})
		}
		tr, te := data.Split(mat.NewRNG(seed+101), ds, 0.25)
		return Workload{
			Build: func(rng *mat.RNG) *nn.Network { return w.build(w.shape, classes, rng) },
			Train: tr, Test: te, Task: w.task(), Target: w.target,
		}, nil
	}
	return Workload{}, fmt.Errorf("unknown model %q (want one of %v)", model, Models())
}

// PrecondOpts bundles the hyperparameters PrecondFactory threads into the
// second-order optimizer constructors — one struct shared by the CLIs and
// the job API so adding a knob is a one-field change rather than a
// signature ripple across three front ends.
type PrecondOpts struct {
	Damping  float64
	RankFrac float64
	// Eta is the gradient-switch threshold (the "hylo" policy only).
	Eta float64
	// IDTol is the KID numerical-rank tolerance; 0 disables truncation
	// (HyLo's struct uses 0 for "default", negative for "off").
	IDTol float64
	// KidSketch selects the randomized KID fast path (SketchOff, the
	// exact pivoted-QR ID, by default).
	KidSketch core.Sketch
	// KidOversample is the sketch width beyond the target rank; 0 selects
	// core.DefaultOversample.
	KidOversample int
}

// PrecondFactory maps an optimizer name onto a train.PrecondFactory. The
// first-order methods (sgd, adam) return a nil factory with a nil error —
// the trainer's convention for "no preconditioner".
func PrecondFactory(optimizer string, o PrecondOpts) (train.PrecondFactory, error) {
	hylo := func(policy core.SwitchPolicy) train.PrecondFactory {
		return func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			h := core.NewHyLo(net, o.Damping, o.RankFrac, c, tl, rng)
			// Flag semantics: 0 disables truncation (the struct uses 0 for
			// "default", negative for "off").
			h.IDTol = o.IDTol
			if o.IDTol == 0 {
				h.IDTol = -1
			}
			h.Sketch = o.KidSketch
			h.Oversample = o.KidOversample
			if policy != nil {
				h.Policy = policy
			}
			return h
		}
	}
	switch optimizer {
	case "sgd", "adam":
		return nil, nil
	case "kfac", "kaisa":
		return func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return kfac.NewKFAC(net, o.Damping, c, tl)
		}, nil
	case "ekfac":
		return func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return kfac.NewEKFAC(net, o.Damping, c, tl)
		}, nil
	case "kbfgs":
		return func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return kbfgs.NewKBFGSL(net, 0.01, 10)
		}, nil
	case "sngd":
		return func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return sngd.New(net, o.Damping, c, tl)
		}, nil
	case "hylo":
		return hylo(core.GradientSwitch{Eta: o.Eta}), nil
	case "hylo-kid":
		return hylo(core.FixedSwitch{Mode: core.ModeKID}), nil
	case "hylo-kis":
		return hylo(core.FixedSwitch{Mode: core.ModeKIS}), nil
	case "hylo-random":
		return hylo(core.RandomSwitch{}), nil
	default:
		return nil, fmt.Errorf("unknown optimizer %q (want one of %v)", optimizer, Optimizers())
	}
}
