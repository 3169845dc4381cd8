package bench

import (
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// ExtensionViT goes beyond the paper: HyLo (and the baselines) applied to
// a ViT-style attention model, exercising per-token captures on the
// attention projections. The paper formulates SNGD for fully-connected and
// conv layers only; this experiment shows the library's capture contract
// extends to attention for free.
func ExtensionViT(cfg RunConfig) *Table {
	t := &Table{ID: "ext-vit", Title: "Extension: second-order methods on a ViT-style model",
		Headers: []string{"method", "best acc", "final loss", "total time"}}
	classes, per, epochs, depth := 4, 48, 8, 1
	if cfg.Quick {
		classes, per, epochs, depth = 3, 24, 4, 1
	}
	shape := nn.Shape{C: 1, H: 8, W: 8}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+90), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	tr, te := data.Split(mat.NewRNG(cfg.Seed+91), ds, 0.25)
	w := workload{
		name: "ViT-lite",
		build: func(rng *mat.RNG) *nn.Network {
			return models.TransformerLite(shape, 4, 8, depth, classes, rng)
		},
		trainD: tr, testD: te, task: train.Classification(),
		cfg: train.Config{
			Epochs: epochs, BatchSize: 16,
			LR:       opt.LRSchedule{Base: 0.05, Gamma: 1},
			Momentum: 0.9, UpdateFreq: 5, Damping: 0.1, Seed: cfg.Seed,
		},
		workers: 1,
	}
	for _, m := range cfg.methods([]string{"HyLo", "KFAC", "SGD", "ADAM"}) {
		res := runMethod(w, m)
		t.AddRow(m.name, fmtF(res.Best), fmtF(res.FinalLoss),
			fmtDur(res.Stats[len(res.Stats)-1].Elapsed))
	}
	t.AddNote("attention projections capture one (A,G) row per token; HyLo's kernel reduction applies unchanged")
	return t
}
