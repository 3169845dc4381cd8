package bench

import (
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/nn"
)

// ExtensionFIMQuality measures each method's preconditioning quality
// against the DENSE damped Fisher inverse on a small layer — a ground-truth
// comparison the paper argues only indirectly (via convergence curves).
// For a layer with per-sample factors (A, G), the exact preconditioned
// gradient is (F+αI)⁻¹g with F = ÛᵀÛ, Û = (A⊙G)/√m, computed densely; the
// table reports the relative error of each method's production backend
// (Nyström, which no backend implements, through core).
func ExtensionFIMQuality(cfg RunConfig) *Table {
	t := &Table{ID: "ext-fim", Title: "Extension: preconditioning error vs dense Fisher inverse",
		Headers: []string{"method", "relative error", "notes"}}
	classes, batch := 4, 48
	if cfg.Quick {
		classes, batch = 3, 32
	}
	shape := nn.Shape{C: 1, H: 10, W: 10}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+98), data.ClassSpec{
		Classes: classes, PerClass: (batch + classes - 1) / classes, Shape: shape, Noise: 0.3})
	// A small dedicated net whose final layer is low-dimensional enough to
	// invert the dense Fisher (d = dIn·dOut must stay modest).
	net := nn.NewNetwork(shape, mat.NewRNG(cfg.Seed+99),
		nn.NewConv2d(4, 3, 2, 1), nn.NewReLU(),
		nn.NewGlobalAvgPool(), nn.NewLinear(classes))
	l, last := captureHead(net, ds, batch) // the linear head: dIn=5, dOut=classes
	a, g := l.Capture()
	grad := l.Weight().Grad.Data()
	const alpha = 0.1

	// Dense ground truth.
	u := mat.KhatriRao(a, g).Scale(1 / math.Sqrt(float64(a.Rows())))
	f := mat.GramT(u).AddDiag(alpha)
	exactM, err := mat.Solve(f, mat.NewDenseData(len(grad), 1, slices.Clone(grad)))
	if err != nil {
		t.AddNote("dense solve failed: %v", err)
		return t
	}
	exact := exactM.Col(0)

	o := cfg.opts()
	o.Damping, o.RankFrac = alpha, 0.25
	rng := mat.NewRNG(cfg.Seed + 100)
	row := func(name, optimizer, note string) {
		t.AddRow(name, fmtF(relErr(probe(net, optimizer, o, rng)[last], exact)), note)
	}
	row("SNGD (SMW, exact)", "sngd", "must be ~0: SMW is algebraically exact")
	row("HyLo-KID r=25%", "hylo-kid", "deterministic ID")
	row("HyLo-KIS r=25%", "hylo-kis", "sampled, one draw")
	t.AddRow("Nystrom r=25%", fmtF(relErr(orNaN(core.PreconditionNystrom(a, g, grad, alpha, batch/4, rng)), exact)),
		"landmark kernel approximation")
	row("KFAC (Kronecker)", "kfac", "structural approximation error")
	t.AddNote("the Kronecker approximation error is irreducible; HyLo's shrinks with rank")
	return t
}
