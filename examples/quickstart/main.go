// Quickstart: train a small MLP on a synthetic classification task with
// the HyLo optimizer and compare it against SGD. This is the minimal
// end-to-end use of the public training API:
//
//	go run ./examples/quickstart
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
	// 1. A deterministic synthetic dataset: 4 classes, 16-dim vectors.
	ds := data.SynthVectors(mat.NewRNG(1), 4, 150, 16, 0.3)
	trainSet, testSet := data.Split(mat.NewRNG(2), ds, 0.25)

	// 2. A model builder. The trainer constructs one replica per worker.
	build := func(rng *mat.RNG) *nn.Network {
		return models.MLP(nn.Vec(16), []int{32, 16}, 4, rng)
	}

	// 3. Shared hyperparameters.
	cfg := train.Config{
		Epochs:    12,
		BatchSize: 32,
		LR:        opt.LRSchedule{Base: 0.05, DecayAt: []int{8}, Gamma: 0.1},
		Momentum:  0.9,
		// Second-order state refreshes every 5 iterations.
		UpdateFreq: 5,
		Damping:    0.1,
		Seed:       42,
	}

	// 4. HyLo: rank = 10% of the global batch, gradient-based switching.
	hylo := func(net *nn.Network, comm dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
		return core.NewHyLo(net, cfg.Damping, 0.1, comm, tl, rng)
	}

	// 5. One Job per run, driven on the calling goroutine; a failed run is
	// reported, not panicked.
	run := func(pre train.PrecondFactory) train.Result {
		res, err := train.Drive(context.Background(), train.Local(), train.Job{
			Config: cfg, Build: build, Train: trainSet, Test: testSet,
			Task: train.Classification(), Precond: pre, Target: 0.9,
		}, train.ElasticConfig{})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("training with HyLo...")
	hyloRes := run(hylo)

	fmt.Println("training with SGD...")
	sgdRes := run(nil)

	fmt.Printf("\n%-8s %-14s %-14s\n", "epoch", "HyLo acc", "SGD acc")
	for i := range hyloRes.Stats {
		fmt.Printf("%-8d %-14.4f %-14.4f\n",
			i, hyloRes.Stats[i].Metric, sgdRes.Stats[i].Metric)
	}
	fmt.Printf("\nHyLo best %.4f (modes per epoch: %v)\nSGD  best %.4f\n",
		hyloRes.Best, hyloRes.EpochModes, sgdRes.Best)
}
