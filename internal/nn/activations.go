package nn

import (
	"math"

	"repro/internal/mat"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	mask *mat.Dense
	out  *mat.Dense
	gout *mat.Dense
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Build implements Layer.
func (r *ReLU) Build(in Shape, _ *mat.RNG) Shape { return in }

// Forward implements Layer.
func (r *ReLU) Forward(x *mat.Dense, train bool) *mat.Dense {
	out := mat.EnsureDense(r.out, x.Rows(), x.Cols())
	r.out = out
	r.mask = mat.EnsureDense(r.mask, x.Rows(), x.Cols())
	xd, od, md := x.Data(), out.Data()[:len(x.Data())], r.mask.Data()[:len(x.Data())]
	// The sign of an activation is a coin flip to the branch predictor, so
	// the keep-mask is computed as an integer (all ones where v > 0) and
	// applied to the bits of v and of 1.0: no branch on the data.
	for i, v := range xd {
		var k uint64
		if v > 0 {
			k = 1
		}
		k = -k
		od[i] = math.Float64frombits(math.Float64bits(v) & k)
		md[i] = math.Float64frombits(0x3FF0000000000000 & k)
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *mat.Dense) *mat.Dense {
	r.gout = mat.EnsureDense(r.gout, grad.Rows(), grad.Cols())
	mat.HadamardInto(r.gout, grad, r.mask)
	return r.gout
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation (used by the KBFGS convergence
// theory, which assumes bounded activations).
type Tanh struct {
	out  *mat.Dense
	gout *mat.Dense
}

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Build implements Layer.
func (t *Tanh) Build(in Shape, _ *mat.RNG) Shape { return in }

// Forward implements Layer.
func (t *Tanh) Forward(x *mat.Dense, train bool) *mat.Dense {
	out := mat.EnsureDense(t.out, x.Rows(), x.Cols())
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		od[i] = math.Tanh(v)
	}
	t.out = out
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *mat.Dense) *mat.Dense {
	t.gout = mat.EnsureDense(t.gout, grad.Rows(), grad.Cols())
	out := t.gout
	gd, od, yd := grad.Data(), out.Data(), t.out.Data()
	for i := range gd {
		od[i] = gd[i] * (1 - float64(yd[i]*yd[i]))
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }
