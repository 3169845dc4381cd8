package models

import (
	"repro/internal/mat"
	"repro/internal/nn"
)

// patchify converts image inputs into token sequences for the transformer
// substitute: the image is cut into non-overlapping patches, each patch
// becoming one token of dimension C·ps². Implemented as a Layer so it
// composes with the sequential stack.
type patchify struct {
	ps      int
	in      nn.Shape
	out     nn.Shape
	nTokens int
}

// NewPatchify returns a layer splitting C×H×W inputs into (H/ps)·(W/ps)
// tokens of dimension C·ps².
func NewPatchify(ps int) nn.Layer { return &patchify{ps: ps} }

func (p *patchify) Name() string { return "patchify" }

func (p *patchify) Build(in nn.Shape, _ *mat.RNG) nn.Shape {
	p.in = in
	ny, nx := in.H/p.ps, in.W/p.ps
	if ny == 0 || nx == 0 {
		panic("models: patch size exceeds image")
	}
	p.nTokens = ny * nx
	p.out = nn.Shape{C: p.nTokens, H: in.C * p.ps * p.ps, W: 1}
	return p.out
}

func (p *patchify) Forward(x *mat.Dense, _ bool) *mat.Dense {
	m := x.Rows()
	d := p.out.H
	out := mat.NewDense(m, p.nTokens*d)
	ny, nx := p.in.H/p.ps, p.in.W/p.ps
	for i := 0; i < m; i++ {
		src, dst := x.Row(i), out.Row(i)
		for ty := 0; ty < ny; ty++ {
			for tx := 0; tx < nx; tx++ {
				tok := ty*nx + tx
				idx := 0
				for c := 0; c < p.in.C; c++ {
					for dy := 0; dy < p.ps; dy++ {
						for dx := 0; dx < p.ps; dx++ {
							y := ty*p.ps + dy
							xx := tx*p.ps + dx
							dst[tok*d+idx] = src[c*p.in.H*p.in.W+y*p.in.W+xx]
							idx++
						}
					}
				}
			}
		}
	}
	return out
}

func (p *patchify) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	d := p.out.H
	out := mat.NewDense(m, p.in.Numel())
	ny, nx := p.in.H/p.ps, p.in.W/p.ps
	for i := 0; i < m; i++ {
		src, dst := grad.Row(i), out.Row(i)
		for ty := 0; ty < ny; ty++ {
			for tx := 0; tx < nx; tx++ {
				tok := ty*nx + tx
				idx := 0
				for c := 0; c < p.in.C; c++ {
					for dy := 0; dy < p.ps; dy++ {
						for dx := 0; dx < p.ps; dx++ {
							y := ty*p.ps + dy
							xx := tx*p.ps + dx
							dst[c*p.in.H*p.in.W+y*p.in.W+xx] = src[tok*d+idx]
							idx++
						}
					}
				}
			}
		}
	}
	return out
}

func (p *patchify) Params() []*nn.Param { return nil }

// meanTokens pools a Shape{L, d, 1} sequence to Vec(d) by averaging over
// tokens (the classification readout).
type meanTokens struct {
	l, d int
}

// NewMeanTokens returns a token-mean pooling layer.
func NewMeanTokens() nn.Layer { return &meanTokens{} }

func (t *meanTokens) Name() string { return "meantokens" }

func (t *meanTokens) Build(in nn.Shape, _ *mat.RNG) nn.Shape {
	t.l, t.d = in.C, in.H
	return nn.Vec(t.d)
}

func (t *meanTokens) Forward(x *mat.Dense, _ bool) *mat.Dense {
	m := x.Rows()
	out := mat.NewDense(m, t.d)
	inv := 1 / float64(t.l)
	for i := 0; i < m; i++ {
		src, dst := x.Row(i), out.Row(i)
		for tok := 0; tok < t.l; tok++ {
			for j := 0; j < t.d; j++ {
				dst[j] += float64(src[tok*t.d+j] * inv)
			}
		}
	}
	return out
}

func (t *meanTokens) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	out := mat.NewDense(m, t.l*t.d)
	inv := 1 / float64(t.l)
	for i := 0; i < m; i++ {
		src, dst := grad.Row(i), out.Row(i)
		for tok := 0; tok < t.l; tok++ {
			for j := 0; j < t.d; j++ {
				dst[tok*t.d+j] = src[j] * inv
			}
		}
	}
	return out
}

func (t *meanTokens) Params() []*nn.Param { return nil }

// tokenProject maps tokens of dimension dIn to dModel with one shared
// Linear (the ViT patch embedding).
type tokenProject struct {
	dModel int
	l, d   int
	lin    *nn.Linear
}

// NewTokenProject returns a per-token linear embedding to dModel.
func NewTokenProject(dModel int) nn.Layer { return &tokenProject{dModel: dModel} }

func (t *tokenProject) Name() string { return "tokenproject" }

func (t *tokenProject) Build(in nn.Shape, rng *mat.RNG) nn.Shape {
	t.l, t.d = in.C, in.H
	t.lin = nn.NewLinear(t.dModel)
	t.lin.Build(nn.Vec(t.d), rng)
	return nn.Shape{C: t.l, H: t.dModel, W: 1}
}

func (t *tokenProject) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	xt := mat.NewDenseData(m*t.l, t.d, x.Data())
	out := t.lin.Forward(xt, train)
	return mat.NewDenseData(m, t.l*t.dModel, out.Data())
}

func (t *tokenProject) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	gt := mat.NewDenseData(m*t.l, t.dModel, grad.Data())
	dx := t.lin.Backward(gt)
	return mat.NewDenseData(m, t.l*t.d, dx.Data())
}

func (t *tokenProject) Params() []*nn.Param { return t.lin.Params() }

// SubLayers implements nn.Composite.
func (t *tokenProject) SubLayers() []nn.Layer { return []nn.Layer{t.lin} }

// TransformerLite builds a ViT-style classifier: patchify → linear token
// embedding → depth × (attention + token MLP, residual) → mean pool →
// classifier head. Every projection is a capture-enabled Linear, so HyLo
// and the other second-order methods precondition attention models out of
// the box — an extension beyond the paper's FC/conv coverage.
func TransformerLite(in nn.Shape, patch, dModel, depth, classes int, rng *mat.RNG) *nn.Network {
	layers := []nn.Layer{
		NewPatchify(patch),
		NewTokenProject(dModel),
		nn.NewPosEmbed(),
	}
	for b := 0; b < depth; b++ {
		// Pre-norm blocks, as in modern ViTs.
		layers = append(layers,
			nn.NewResidual(nn.NewLayerNorm(), nn.NewSelfAttention()),
			nn.NewResidual(nn.NewLayerNorm(), nn.NewTokenMLP(2*dModel)),
		)
	}
	layers = append(layers, NewMeanTokens(), nn.NewLinear(classes))
	return nn.NewNetwork(in, rng, layers...)
}
