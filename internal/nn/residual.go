package nn

import (
	"repro/internal/mat"
)

// Residual wraps a body stack with a skip connection: y = body(x) + skip(x)
// where skip is the identity when shapes match and a 1×1 strided conv
// projection otherwise (the standard ResNet option-B shortcut).
type Residual struct {
	Body *Network
	Proj *Conv2d // nil when the skip is identity

	bodyLayers []Layer
	in, out    Shape
	y          *mat.Dense // identity-skip output, reused across steps
}

// NewResidual wraps layers in a residual block.
func NewResidual(layers ...Layer) *Residual {
	return &Residual{bodyLayers: layers}
}

// Name implements Layer.
func (r *Residual) Name() string { return "residual" }

// Build implements Layer.
func (r *Residual) Build(in Shape, rng *mat.RNG) Shape {
	r.in = in
	r.Body = NewNetwork(in, rng, r.bodyLayers...)
	r.out = r.Body.OutShape()
	if r.out != in {
		// Projection shortcut: 1×1 conv matching channels, with stride
		// inferred from the spatial downsampling ratio.
		stride := 1
		if r.out.H > 0 && in.H/r.out.H > 1 {
			stride = in.H / r.out.H
		}
		r.Proj = NewConv2d(r.out.C, 1, stride, 0)
		got := r.Proj.Build(in, rng)
		if got != r.out {
			panic("nn: residual projection shape mismatch: " + got.String() + " vs " + r.out.String())
		}
	}
	return r.out
}

// Forward implements Layer.
func (r *Residual) Forward(x *mat.Dense, train bool) *mat.Dense {
	y := r.Body.Forward(x, train)
	if r.Proj != nil {
		return y.AddMat(r.Proj.Forward(x, train))
	}
	r.y = mat.EnsureDense(r.y, y.Rows(), y.Cols())
	r.y.CopyFrom(y)
	return r.y.AddMat(x)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *mat.Dense) *mat.Dense {
	gin := r.Body.Backward(grad)
	if r.Proj != nil {
		return gin.AddMat(r.Proj.Backward(grad))
	}
	return gin.AddMat(grad)
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

// SubLayers implements Composite.
func (r *Residual) SubLayers() []Layer {
	ls := append([]Layer(nil), r.Body.Layers...)
	if r.Proj != nil {
		ls = append(ls, r.Proj)
	}
	return ls
}
