// CNN classification: train the paper's 3C1F architecture on a synthetic
// Fashion-MNIST stand-in and compare all six optimizers of Fig. 4 (HyLo,
// KFAC, EKFAC, KBFGS-L, SGD, ADAM) head-to-head. This exercises the CNN
// extension of SNGD (Sec. IV): conv layers expose spatially-summed
// per-sample factors that HyLo consumes exactly like FC layers.
//
//	go run ./examples/cnn_classification
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kbfgs"
	"repro/internal/kfac"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

func main() {
	shape := nn.Shape{C: 1, H: 16, W: 16}
	ds := data.SynthImages(mat.NewRNG(3), data.ClassSpec{
		Classes: 6, PerClass: 60, Shape: shape, Noise: 0.3})
	trainSet, testSet := data.Split(mat.NewRNG(4), ds, 0.25)

	build := func(rng *mat.RNG) *nn.Network {
		return models.ThreeC1F(shape, 8, 6, rng)
	}
	cfg := train.Config{
		Epochs: 8, BatchSize: 32,
		LR:       opt.LRSchedule{Base: 0.03, DecayAt: []int{6}, Gamma: 0.1},
		Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: 7,
	}

	methods := []struct {
		name string
		adam bool
		pre  train.PrecondFactory
	}{
		{"HyLo", false, func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return core.NewHyLo(net, 0.1, 0.1, c, tl, rng)
		}},
		{"KFAC", false, func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return kfac.NewKFAC(net, 0.1, c, tl)
		}},
		{"EKFAC", false, func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return kfac.NewEKFAC(net, 0.1, c, tl)
		}},
		{"KBFGS-L", false, func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
			return kbfgs.NewKBFGSL(net, 0.01, 10)
		}},
		{"SGD", false, nil},
		{"ADAM", true, nil},
	}

	fmt.Printf("%-10s %-10s %-10s %-12s %-12s\n",
		"method", "best acc", "final acc", "target@0.85", "total time")
	for _, m := range methods {
		c := cfg
		c.Adam = m.adam
		res, err := train.Drive(context.Background(), train.Local(), train.Job{
			Config: c, Build: build, Train: trainSet, Test: testSet,
			Task: train.Classification(), Precond: m.pre, Target: 0.85,
		}, train.ElasticConfig{})
		if err != nil {
			log.Fatal(err)
		}
		last := res.Stats[len(res.Stats)-1]
		ttt := "-"
		if res.TimeToTarget > 0 {
			ttt = fmt.Sprintf("%.2fs", res.TimeToTarget.Seconds())
		}
		fmt.Printf("%-10s %-10.4f %-10.4f %-12s %-12.2fs\n",
			m.name, res.Best, last.Metric, ttt, last.Elapsed.Seconds())
	}
}
