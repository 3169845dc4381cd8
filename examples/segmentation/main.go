// Segmentation: train the MiniUNet substitute (encoder-decoder with skip
// connections) on a synthetic lesion-segmentation task — the stand-in for
// the paper's U-Net / LGG MRI experiment — with HyLo vs ADAM, reporting
// the Dice similarity coefficient.
//
//	go run ./examples/segmentation
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
	ds := data.SynthSegmentation(mat.NewRNG(11), data.SegSpec{
		N: 240, Shape: shape, Noise: 0.4})
	trainSet, testSet := data.Split(mat.NewRNG(12), ds, 0.25)

	build := func(rng *mat.RNG) *nn.Network {
		return models.MiniUNet(shape, 4, rng)
	}
	cfg := train.Config{
		Epochs: 10, BatchSize: 16,
		LR:       opt.LRSchedule{Base: 0.05, Gamma: 1},
		Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: 13,
	}

	hylo := func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
		return core.NewHyLo(net, 0.1, 0.1, c, tl, rng)
	}

	// One Job per run on the calling goroutine; a failed run is reported,
	// not panicked.
	run := func(c train.Config, pre train.PrecondFactory) train.Result {
		res, err := train.Drive(context.Background(), train.Local(), train.Job{
			Config: c, Build: build, Train: trainSet, Test: testSet,
			Task: train.Segmentation(), Precond: pre, Target: 0.85,
		}, train.ElasticConfig{})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("training MiniUNet with HyLo...")
	hyloRes := run(cfg, hylo)

	adamCfg := cfg
	adamCfg.Adam = true
	adamCfg.LR.Base = 0.01
	fmt.Println("training MiniUNet with ADAM...")
	adamRes := run(adamCfg, nil)

	fmt.Printf("\n%-8s %-12s %-12s\n", "epoch", "HyLo Dice", "ADAM Dice")
	for i := range hyloRes.Stats {
		fmt.Printf("%-8d %-12.4f %-12.4f\n",
			i, hyloRes.Stats[i].Metric, adamRes.Stats[i].Metric)
	}
	fmt.Printf("\nHyLo best Dice %.4f, ADAM best Dice %.4f\n", hyloRes.Best, adamRes.Best)
}
