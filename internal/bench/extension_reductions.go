package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
)

// ExtensionReductions compares the three classical low-rank kernel
// reductions — the paper's KID and KIS, as the production HyLo backends
// apply them, plus Nyström — on the normalized gradient error across a
// rank sweep, using real captures from a substitute model. It
// contextualizes the paper's choice of ID + importance sampling: Nyström
// is competitive in error but its C factor carries the batch dimension,
// making it communication-unfriendly at scale.
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
	l, last := captureHead(net, ds, batch)
	a, g := l.Capture()
	grad := l.Weight().Grad.Data()
	exact := exactGrad(l, 0.1)
	if exact == nil {
		t.AddNote("exact SNGD solve failed")
		return t
	}
	o := cfg.opts()
	o.Damping = 0.1
	const trials = 5
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		o.RankFrac = frac // HyLo's rank int(frac·batch) is Nyström's r
		r := max(int(frac*float64(batch)), 2)
		var kid, kis, nys float64
		for trial := 0; trial < trials; trial++ {
			rng := mat.NewRNG(cfg.Seed + 97 + uint64(trial))
			kid += relErr(probe(net, "hylo-kid", o, rng)[last], exact)
			kis += relErr(probe(net, "hylo-kis", o, rng)[last], exact)
			nys += relErr(orNaN(core.PreconditionNystrom(a, g, grad, 0.1, r, rng)), exact)
		}
		t.AddRow(fmt.Sprintf("%.0f%%", 100*frac),
			fmtF(kid/trials), fmtF(kis/trials), fmtF(nys/trials))
	}
	t.AddNote("Nystrom's C factor is m×r (batch-sized): a distributed gather would cost O(rho*m) per worker vs KID/KIS's O(rho*d)")
	return t
}
