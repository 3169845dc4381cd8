package bench

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
)

// ExtensionReductions compares the three classical low-rank kernel
// reductions — the paper's KID and KIS plus Nyström — on the normalized
// gradient error across a rank sweep, using real captures from a
// substitute model. It contextualizes the paper's choice of ID +
// importance sampling: Nyström is competitive in error but its C factor
// carries the batch dimension, making it communication-unfriendly at
// scale.
func ExtensionReductions(cfg RunConfig) *Table {
	t := &Table{ID: "ext-reductions", Title: "Extension: KID vs KIS vs Nystrom gradient error",
		Headers: []string{"rank/batch", "KID", "KIS", "Nystrom"}}
	classes, batch := 4, 64
	if cfg.Quick {
		classes, batch = 3, 32
	}
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+95), data.ClassSpec{
		Classes: classes, PerClass: (batch + classes - 1) / classes, Shape: shape, Noise: 0.3})
	net := models.ThreeC1F(shape, 4, classes, mat.NewRNG(cfg.Seed+96))
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	kls := captureBatch(net, ds, idx)
	l := kls[len(kls)-1]
	a, g := l.Capture()
	grad := l.Weight().Grad.Data()
	exact, err := core.PreconditionExact(a, g, grad, 0.1)
	if err != nil {
		t.AddNote("exact SNGD solve failed: " + err.Error())
		return t
	}
	// The panic-free preconditioners report degenerate inputs as errors;
	// an analysis sweep renders those cells as NaN instead of aborting.
	orNaN := func(out []float64, err error) []float64 {
		if err != nil {
			out = make([]float64, len(grad))
			for i := range out {
				out[i] = math.NaN()
			}
		}
		return out
	}

	relErr := func(approx []float64) float64 {
		var num, den float64
		for j := range exact {
			d := approx[j] - exact[j]
			num += float64(d * d)
			den += float64(exact[j] * exact[j])
		}
		return math.Sqrt(num / den)
	}
	const trials = 5
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		r := int(frac * float64(batch))
		if r < 2 {
			r = 2
		}
		var kid, kis, nys float64
		for trial := 0; trial < trials; trial++ {
			rng := mat.NewRNG(cfg.Seed + 97 + uint64(trial))
			kid += relErr(orNaN(core.PreconditionReduced(a, g, grad, 0.1, r, core.ModeKID, rng)))
			kis += relErr(orNaN(core.PreconditionReduced(a, g, grad, 0.1, r, core.ModeKIS, rng)))
			nys += relErr(orNaN(core.PreconditionNystrom(a, g, grad, 0.1, r, rng)))
		}
		t.AddRow(fmt.Sprintf("%.0f%%", 100*frac),
			fmtF(kid/trials), fmtF(kis/trials), fmtF(nys/trials))
	}
	t.AddNote("Nystrom's C factor is m×r (batch-sized): a distributed gather would cost O(rho*m) per worker vs KID/KIS's O(rho*d)")
	return t
}
