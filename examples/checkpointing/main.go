// Checkpointing: the resume guarantee. One HyLo job of 10 epochs runs
// three ways — straight through; with a checkpoint directory and cancelled
// after epoch 5, so train.Drive force-writes a checkpoint and returns
// ErrCancelled; and again with Resume, continuing from that checkpoint.
// The two phases together must reproduce every epoch's training loss and
// test accuracy of the straight run bit for bit. This is how hylo-serve
// preempts a job and later finishes it.
//
//	go run ./examples/checkpointing
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"

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
	shape := nn.Shape{C: 1, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(31), data.ClassSpec{
		Classes: 5, PerClass: 60, Shape: shape, Noise: 0.3})
	trainSet, testSet := data.Split(mat.NewRNG(32), ds, 0.25)
	cfg := train.Config{Epochs: 10, BatchSize: 32, Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: 42,
		LR: opt.LRSchedule{Base: 0.03, DecayAt: []int{7}, Gamma: 0.1}}
	job := func(cfg train.Config) train.Job {
		return train.Job{Config: cfg, Train: trainSet, Test: testSet, Task: train.Classification(),
			Build: func(rng *mat.RNG) *nn.Network { return models.ThreeC1F(shape, 6, 5, rng) },
			Precond: func(net *nn.Network, comm dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
				return core.NewHyLo(net, cfg.Damping, 0.1, comm, tl, rng)
			}}
	}

	fmt.Println("straight run: 10 epochs")
	straight, err := train.Drive(context.Background(), train.Local(), job(cfg), train.ElasticConfig{})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "hylo-ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Phase 1: the same job, cancelled from the epoch hook once epoch 5
	// (index 4) has finished; Drive stops at that boundary and checkpoints.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := cfg
	first.OnEpoch = func(st train.EpochStat) {
		if st.Epoch == 4 {
			cancel()
		}
	}
	phase1, err := train.Drive(ctx, train.Local(), job(first), train.ElasticConfig{Dir: dir})
	if !errors.Is(err, train.ErrCancelled) {
		log.Fatalf("phase 1: err = %v; want %v", err, train.ErrCancelled)
	}
	fmt.Printf("phase 1: cancelled after %d epochs, checkpoint written\n", len(phase1.Stats))

	// Phase 2: a fresh Drive resumes from the checkpoint: it trains only the
	// epochs after phase 1, and its Result carries the restored history.
	second, resumedAt := cfg, len(straight.Stats)
	second.OnEpoch = func(st train.EpochStat) { resumedAt = min(resumedAt, st.Epoch) }
	phase2, err := train.Drive(context.Background(), train.Local(), job(second),
		train.ElasticConfig{Dir: dir, Resume: true})
	if err != nil || resumedAt != len(phase1.Stats) || len(phase2.Stats) != len(straight.Stats) {
		log.Fatalf("phase 2: err = %v, trained from epoch %d, %d of %d epochs recorded",
			err, resumedAt, len(phase2.Stats), len(straight.Stats))
	}
	fmt.Printf("phase 2: resumed at epoch %d\n", resumedAt)

	phases := append(phase1.Stats, phase2.Stats[len(phase1.Stats):]...)
	fmt.Printf("\n%-6s %-20s %s\n", "epoch", "train loss", "test acc")
	for i, s := range straight.Stats {
		if p := phases[i]; p.TrainLoss != s.TrainLoss || p.Metric != s.Metric {
			log.Fatalf("epoch %d: resumed run (loss %v, acc %v) differs from the straight run (loss %v, acc %v)",
				i, p.TrainLoss, p.Metric, s.TrainLoss, s.Metric)
		}
		fmt.Printf("%-6d %-20.17g %.4f\n", s.Epoch, s.TrainLoss, s.Metric)
	}
	fmt.Println("\ncancelled-then-resumed run equals the straight run in every epoch")
}
