// Distributed: train a ResNet substitute on 8 simulated workers with HyLo
// and with KAISA (distributed KFAC), printing the phase-time breakdown the
// paper's Fig. 7 reports (factorization / inversion / gather / broadcast).
// Workers run as goroutines and move real tensors through the collectives.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kfac"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

func main() {
	const workers = 8
	shape := nn.Shape{C: 3, H: 16, W: 16}
	ds := data.SynthImages(mat.NewRNG(21), data.ClassSpec{
		Classes: 6, PerClass: 64, Shape: shape, Noise: 0.3})
	trainSet, testSet := data.Split(mat.NewRNG(22), ds, 0.25)

	build := func(rng *mat.RNG) *nn.Network {
		return models.ResNetCIFAR(shape, 1, 8, 6, rng)
	}
	cfg := train.Config{
		Epochs: 6, BatchSize: 6, // global batch = 48
		LR:       opt.LRSchedule{Base: 0.03, DecayAt: []int{4}, Gamma: 0.1},
		Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: 23,
	}

	run := func(name string, pre train.PrecondFactory) train.Result {
		fmt.Printf("training %s on %d simulated workers...\n", name, workers)
		res, err := train.Drive(context.Background(), train.InProcess(dist.NewCluster(workers)), train.Job{
			Config: cfg, Build: build, Train: trainSet, Test: testSet,
			Task: train.Classification(), Precond: pre, Target: 0.8,
		}, train.ElasticConfig{})
		if err != nil {
			log.Fatal(err)
		}
		last := res.Stats[len(res.Stats)-1]
		fmt.Printf("  best acc %.4f, total %.2fs\n", res.Best, last.Elapsed.Seconds())
		fmt.Printf("  phase breakdown (rank 0):\n")
		for _, line := range []string{res.Timeline.String()} {
			fmt.Print("  " + line)
		}
		return res
	}

	run("HyLo", func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
		return core.NewHyLo(net, 0.1, 0.1, c, tl, rng)
	})
	fmt.Println()
	run("KAISA", func(net *nn.Network, c dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
		return kfac.NewKFAC(net, 0.1, c, tl)
	})
}
