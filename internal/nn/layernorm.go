package nn

import (
	"math"

	"repro/internal/mat"
)

// LayerNorm normalizes each token of a Shape{L, d, 1} sequence (or each
// sample of a flat Vec(d) activation) over its feature dimension, with
// learnable per-feature scale γ and shift β — the normalization
// transformer blocks use.
type LayerNorm struct {
	Eps float64

	l, d        int
	gamma, beta *Param

	xhat   *mat.Dense // (m·L)×d normalized activations
	invStd []float64  // per normalized row
}

// NewLayerNorm returns a layer-norm layer with ε = 1e-5.
func NewLayerNorm() *LayerNorm { return &LayerNorm{Eps: 1e-5} }

// Name implements Layer.
func (l *LayerNorm) Name() string { return "layernorm" }

// Build implements Layer.
func (l *LayerNorm) Build(in Shape, _ *mat.RNG) Shape {
	if in.W != 1 {
		panic("nn: LayerNorm needs Shape{L, d, 1} or Vec(d)")
	}
	l.l, l.d = in.C, in.H
	if in.H == 1 { // Vec(d) stores features in C
		l.l, l.d = 1, in.C
	}
	g := mat.NewDense(1, l.d)
	g.Fill(1)
	l.gamma = NewParam("ln.gamma", g)
	l.beta = NewParam("ln.beta", mat.NewDense(1, l.d))
	return in
}

// Forward implements Layer.
func (l *LayerNorm) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	rows := m * l.l
	xt := mat.NewDenseData(rows, l.d, x.Data())
	out := mat.NewDense(rows, l.d)
	l.xhat = mat.NewDense(rows, l.d)
	l.invStd = make([]float64, rows)
	g, b := l.gamma.W.Row(0), l.beta.W.Row(0)
	for i := 0; i < rows; i++ {
		row := xt.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(l.d)
		var variance float64
		for _, v := range row {
			dd := v - mean
			variance += float64(dd * dd)
		}
		variance /= float64(l.d)
		inv := 1 / math.Sqrt(variance+l.Eps)
		l.invStd[i] = inv
		hr, or := l.xhat.Row(i), out.Row(i)
		for j, v := range row {
			h := (v - mean) * inv
			hr[j] = h
			or[j] = float64(g[j]*h) + b[j]
		}
	}
	return mat.NewDenseData(m, l.l*l.d, out.Data())
}

// Backward implements Layer.
func (l *LayerNorm) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	rows := m * l.l
	gt := mat.NewDenseData(rows, l.d, grad.Data())
	out := mat.NewDense(rows, l.d)
	g := l.gamma.W.Row(0)
	gGrad, bGrad := l.gamma.Grad.Row(0), l.beta.Grad.Row(0)
	n := float64(l.d)
	for i := 0; i < rows; i++ {
		gr, hr, or := gt.Row(i), l.xhat.Row(i), out.Row(i)
		var sumG, sumGH float64
		for j, gv := range gr {
			gGrad[j] += float64(gv * hr[j])
			bGrad[j] += gv
			gj := float64(gv * g[j])
			sumG += gj
			sumGH += float64(gj * hr[j])
		}
		inv := l.invStd[i]
		for j, gv := range gr {
			gj := float64(gv * g[j])
			or[j] = inv * (gj - sumG/n - hr[j]*sumGH/n)
		}
	}
	return mat.NewDenseData(m, l.l*l.d, out.Data())
}

// Params implements Layer.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gamma, l.beta} }
