// ViT attention: train a small vision-transformer (patchify → attention
// blocks with pre-norm residuals → mean pool) with HyLo and with ADAM.
// The attention projections are capture-enabled Linear layers, so HyLo's
// Khatri-Rao kernel reduction preconditions them per token — a capability
// beyond the paper's FC/conv formulation.
//
//	go run ./examples/vit_attention
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

func main() {
	shape := nn.Shape{C: 1, H: 16, W: 16}
	ds := data.SynthImages(mat.NewRNG(41), data.ClassSpec{
		Classes: 5, PerClass: 60, Shape: shape, Noise: 0.3})
	trainSet, testSet := data.Split(mat.NewRNG(42), ds, 0.25)

	build := func(rng *mat.RNG) *nn.Network {
		// 16 patches of 4×4 → 16 tokens of dim 16 → model dim 12, 2 blocks.
		return models.TransformerLite(shape, 4, 12, 2, 5, rng)
	}
	cfg := train.Config{
		Epochs: 10, BatchSize: 25,
		LR:       opt.LRSchedule{Base: 0.05, DecayAt: []int{8}, Gamma: 0.1},
		Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: 43,
		MaxGradNorm: 5,
	}

	hylo := func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
		return core.NewHyLo(net, 0.1, 0.1, c, tl, rng)
	}
	// One Job per run on the calling goroutine; a failed run is reported,
	// not panicked.
	run := func(c train.Config, pre train.PrecondFactory) train.Result {
		res, err := train.Drive(context.Background(), train.Local(), train.Job{
			Config: c, Build: build, Train: trainSet, Test: testSet,
			Task: train.Classification(), Precond: pre, Target: 0.9,
		}, train.ElasticConfig{})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("training ViT-lite with HyLo...")
	hyloRes := run(cfg, hylo)

	adamCfg := cfg
	adamCfg.Adam = true
	adamCfg.LR.Base = 0.01
	fmt.Println("training ViT-lite with ADAM...")
	adamRes := run(adamCfg, nil)

	fmt.Printf("\n%-8s %-12s %-12s\n", "epoch", "HyLo acc", "ADAM acc")
	for i := range hyloRes.Stats {
		fmt.Printf("%-8d %-12.4f %-12.4f\n",
			i, hyloRes.Stats[i].Metric, adamRes.Stats[i].Metric)
	}
	fmt.Printf("\nHyLo best %.4f (modes: %v)\nADAM best %.4f\n",
		hyloRes.Best, hyloRes.EpochModes, adamRes.Best)
}
