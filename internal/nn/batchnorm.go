package nn

import (
	"math"

	"repro/internal/mat"
)

// BatchNorm2d normalizes each channel over the batch and spatial
// dimensions, with learnable per-channel scale γ and shift β. Like the
// authors' PyTorch setup (and every KFAC implementation), its parameters
// are trained first-order; second-order preconditioning applies to conv
// and linear layers only.
type BatchNorm2d struct {
	Momentum, Eps float64

	in          Shape
	gamma, beta *Param
	runMean     []float64
	runVar      []float64

	// forward state for backward
	xhat   *mat.Dense
	invStd []float64
	nElem  int

	// persistent output buffers, reused across iterations
	y    *mat.Dense
	gout *mat.Dense
}

// NewBatchNorm2d returns a batch-norm layer with standard defaults.
func NewBatchNorm2d() *BatchNorm2d { return &BatchNorm2d{Momentum: 0.1, Eps: 1e-5} }

// Name implements Layer.
func (b *BatchNorm2d) Name() string { return "batchnorm" }

// Build implements Layer.
func (b *BatchNorm2d) Build(in Shape, _ *mat.RNG) Shape {
	b.in = in
	g := mat.NewDense(1, in.C)
	g.Fill(1)
	b.gamma = NewParam("bn.gamma", g)
	b.beta = NewParam("bn.beta", mat.NewDense(1, in.C))
	b.runMean = make([]float64, in.C)
	b.runVar = make([]float64, in.C)
	for i := range b.runVar {
		b.runVar[i] = 1
	}
	return in
}

// Forward implements Layer.
func (b *BatchNorm2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	hw := b.in.H * b.in.W
	b.y = mat.EnsureDense(b.y, m, x.Cols())
	y := b.y // fully overwritten channel by channel
	if train {
		b.xhat = mat.EnsureDense(b.xhat, m, x.Cols())
		b.invStd = mat.EnsureFloats(b.invStd, b.in.C)
		b.nElem = m * hw
	}
	for c := 0; c < b.in.C; c++ {
		var mean, variance float64
		if train {
			for i := 0; i < m; i++ {
				xr := x.Row(i)[c*hw : (c+1)*hw]
				for _, v := range xr {
					mean += v
				}
			}
			mean /= float64(m * hw)
			for i := 0; i < m; i++ {
				xr := x.Row(i)[c*hw : (c+1)*hw]
				for _, v := range xr {
					d := v - mean
					variance += float64(d * d)
				}
			}
			variance /= float64(m * hw)
			b.runMean[c] = float64((1-b.Momentum)*b.runMean[c]) + float64(b.Momentum*mean)
			b.runVar[c] = float64((1-b.Momentum)*b.runVar[c]) + float64(b.Momentum*variance)
		} else {
			mean, variance = b.runMean[c], b.runVar[c]
		}
		inv := 1 / math.Sqrt(variance+b.Eps)
		g, bt := b.gamma.W.At(0, c), b.beta.W.At(0, c)
		if train {
			b.invStd[c] = inv
		}
		for i := 0; i < m; i++ {
			xr := x.Row(i)[c*hw : (c+1)*hw]
			yr := y.Row(i)[c*hw : (c+1)*hw]
			if train {
				hr := b.xhat.Row(i)[c*hw : (c+1)*hw]
				for k, v := range xr {
					h := (v - mean) * inv
					hr[k] = h
					yr[k] = float64(g*h) + bt
				}
			} else {
				for k, v := range xr {
					yr[k] = float64(g*(v-mean)*inv) + bt
				}
			}
		}
	}
	return y
}

// Backward implements Layer (training-mode statistics).
func (b *BatchNorm2d) Backward(grad *mat.Dense) *mat.Dense {
	if b.xhat == nil {
		panic("nn: BatchNorm2d.Backward before training Forward")
	}
	m := grad.Rows()
	hw := b.in.H * b.in.W
	b.gout = mat.EnsureDense(b.gout, m, grad.Cols())
	out := b.gout // fully overwritten channel by channel
	n := float64(b.nElem)
	for c := 0; c < b.in.C; c++ {
		var sumG, sumGH float64
		for i := 0; i < m; i++ {
			gr := grad.Row(i)[c*hw : (c+1)*hw]
			hr := b.xhat.Row(i)[c*hw : (c+1)*hw]
			for k, gv := range gr {
				sumG += gv
				sumGH += float64(gv * hr[k])
			}
		}
		b.gamma.Grad.Add(0, c, sumGH)
		b.beta.Grad.Add(0, c, sumG)
		// hr[k]*sumGH/n is (hr[k]·sumGH)/n; hoisting sumGH/n would move bits.
		scale, meanG := b.gamma.W.At(0, c)*b.invStd[c], sumG/n
		for i := 0; i < m; i++ {
			gr := grad.Row(i)[c*hw : (c+1)*hw]
			hr := b.xhat.Row(i)[c*hw : (c+1)*hw]
			or := out.Row(i)[c*hw : (c+1)*hw]
			for k, gv := range gr {
				or[k] = scale * (gv - meanG - hr[k]*sumGH/n)
			}
		}
	}
	return out
}

// Params implements Layer.
func (b *BatchNorm2d) Params() []*Param { return []*Param{b.gamma, b.beta} }
