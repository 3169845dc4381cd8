package bench

import (
	"context"

	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// AblationCapture compares the paper's spatial-sum conv capture (Sec. IV)
// against exact per-position expansion (SENG-style) under HyLo: the
// expanded mode makes the conv Jacobian exact but multiplies the kernel
// rows by the spatial size, trading accuracy for factorization cost.
func AblationCapture(cfg RunConfig) *Table {
	t := &Table{ID: "abl-capture", Title: "Ablation: conv capture — spatial sum vs per-position expansion",
		Headers: []string{"capture", "best acc", "total time", "kernel rows/layer"}}
	classes, per, epochs := 4, 32, 6
	if cfg.Quick {
		classes, per, epochs = 3, 20, 3
	}
	shape := nn.Shape{C: 1, H: 10, W: 10}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+70), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+71), ds, 0.25)
	tcfg := train.Config{
		Epochs: epochs, BatchSize: 16,
		LR:       opt.LRSchedule{Base: 0.03, Gamma: 1},
		Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
	}
	for _, v := range []struct {
		name   string
		expand bool
	}{{"spatial sum (paper)", false}, {"per-position (exact)", true}} {
		build := func(rng *mat.RNG) *nn.Network {
			c1 := nn.NewConv2d(4, 3, 1, 1)
			c2 := nn.NewConv2d(8, 3, 2, 1)
			c1.ExpandSpatial = v.expand
			c2.ExpandSpatial = v.expand
			return nn.NewNetwork(shape, rng,
				c1, nn.NewReLU(), c2, nn.NewReLU(),
				nn.NewGlobalAvgPool(), nn.NewLinear(classes))
		}
		rows := "16"
		if v.expand {
			rows = "16·T (per conv output size)"
		}
		res, err := train.Drive(context.Background(), train.Local(), train.Job{
			Config: tcfg, Build: build, Train: tr, Test: te,
			Task: train.Classification(), Precond: precondFactory("hylo", cfg.opts()),
		}, train.ElasticConfig{})
		if err != nil {
			t.AddRow(v.name, "failed: "+err.Error(), "-", rows)
			continue
		}
		t.AddRow(v.name, fmtF(res.Best),
			fmtDur(res.Stats[len(res.Stats)-1].Elapsed), rows)
	}
	t.AddNote("expansion makes AᵀG the exact conv gradient (verified by unit test) but multiplies SNGD kernel rows by the spatial size")
	return t
}
