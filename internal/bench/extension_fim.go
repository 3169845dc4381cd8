package bench

import (
	"math"

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
// table reports the relative error of each approximation.
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
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	kls := captureBatch(net, ds, idx)
	l := kls[len(kls)-1] // the linear head: dIn=5, dOut=classes
	a, g := l.Capture()
	grad := l.Weight().Grad
	const alpha = 0.1

	// Dense ground truth.
	u := mat.KhatriRao(a, g).Scale(1 / math.Sqrt(float64(a.Rows())))
	f := mat.GramT(u).AddDiag(alpha)
	gv := mat.NewDenseData(len(grad.Data()), 1, append([]float64(nil), grad.Data()...))
	exactM, err := mat.Solve(f, gv)
	if err != nil {
		t.AddNote("dense solve failed: %v", err)
		return t
	}
	exact := exactM.Col(0)

	relErr := func(approx *mat.Dense) float64 {
		var num, den float64
		for j, e := range exact {
			d := approx.Data()[j] - e
			num += float64(d * d)
			den += float64(e * e)
		}
		return math.Sqrt(num / den)
	}

	addRow := func(name string, approx []float64, note string) {
		m := mat.NewDenseData(len(approx), 1, approx)
		t.AddRow(name, fmtF(relErr(m)), note)
	}
	gvec := gv.Col(0)
	r := batch / 4
	rng := mat.NewRNG(cfg.Seed + 100)
	// Degenerate-input errors from the panic-free preconditioners become
	// NaN rows rather than aborting the comparison.
	orNaN := func(out []float64, err error) []float64 {
		if err != nil {
			out = make([]float64, len(gvec))
			for i := range out {
				out[i] = math.NaN()
			}
		}
		return out
	}
	addRow("SNGD (SMW, exact)", orNaN(core.PreconditionExact(a, g, gvec, alpha)),
		"must be ~0: SMW is algebraically exact")
	addRow("HyLo-KID r=25%", orNaN(core.PreconditionReduced(a, g, gvec, alpha, r, core.ModeKID, rng)),
		"deterministic ID")
	addRow("HyLo-KIS r=25%", orNaN(core.PreconditionReduced(a, g, gvec, alpha, r, core.ModeKIS, rng)),
		"sampled, one draw")
	addRow("Nystrom r=25%", orNaN(core.PreconditionNystrom(a, g, gvec, alpha, r, rng)),
		"landmark kernel approximation")
	addRow("KFAC (Kronecker)", preconKFAC(a, g, gvec, alpha),
		"structural approximation error")
	t.AddNote("the Kronecker approximation error is irreducible; HyLo's shrinks with rank")
	return t
}

func preconKFAC(a, g *mat.Dense, grad []float64, alpha float64) []float64 {
	m := float64(a.Rows())
	gamma := math.Sqrt(alpha)
	fa := mat.GramT(a).Scale(1 / m).AddDiag(gamma)
	fg := mat.GramT(g).Scale(1 / m).AddDiag(gamma)
	faInv := mat.InvSPDDamped(fa, 0)
	fgInv := mat.InvSPDDamped(fg, 0)
	gm := mat.NewDenseData(a.Cols(), g.Cols(), append([]float64(nil), grad...))
	return mat.Mul(faInv, mat.Mul(gm, fgInv)).Data()
}
