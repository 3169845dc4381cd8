// Package nn is a from-scratch CPU neural-network substrate with the one
// feature second-order optimizers need and mainstream inference libraries
// lack: per-sample capture of layer inputs A and pre-activation output
// gradients G for every parameterized layer.
//
// Activations flow between layers as *mat.Dense with one row per sample
// and columns holding the flattened NCHW feature map; each layer carries
// its spatial Shape metadata. Every parameterized layer folds its bias into
// a single combined weight matrix Wc of size dIn×dOut (dIn includes the
// bias row), so the whole second-order stack — KFAC, EKFAC, KBFGS, SNGD,
// HyLo — can treat "a layer" uniformly as (Wc, A ∈ R^{m×dIn}, G ∈ R^{m×dOut})
// with gradient Wc' = AᵀG. This mirrors Eq. (5) of the paper: the
// per-sample Jacobian is the row-wise Khatri-Rao product U = A ⊙ G.
package nn

import (
	"fmt"

	"repro/internal/mat"
)

// Shape is the per-sample feature-map geometry between layers.
// Fully-connected data uses C=features, H=W=1.
type Shape struct {
	C, H, W int
}

// Numel returns the flattened per-sample length C*H*W.
func (s Shape) Numel() int { return s.C * s.H * s.W }

// Vec returns a pure-vector shape with n features.
func Vec(n int) Shape { return Shape{C: n, H: 1, W: 1} }

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Param is one trainable tensor plus its gradient accumulator.
type Param struct {
	Name string
	W    *mat.Dense
	Grad *mat.Dense
}

// NewParam allocates a parameter and a matching zero gradient.
func NewParam(name string, w *mat.Dense) *Param {
	return &Param{Name: name, W: w, Grad: mat.NewDense(w.Rows(), w.Cols())}
}

// Numel returns the number of scalar parameters.
func (p *Param) Numel() int { return p.W.Rows() * p.W.Cols() }

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is the minimal layer contract. Build is called exactly once with
// the input shape and returns the output shape; Forward/Backward operate on
// batch matrices (rows = samples).
//
// A layer may keep the matrix Forward was given and read it again in
// Backward (Linear and the convolutions do, instead of copying it), so
// whoever calls Forward must leave that matrix unmodified until the layer's
// Backward has returned, and Backward's gradient must have as many rows.
// Writing into a matrix in place (Residual adds its shortcut into the body's
// output) is safe only before the matrix is handed to a Forward or after
// that layer's Backward.
type Layer interface {
	Name() string
	Build(in Shape, rng *mat.RNG) Shape
	Forward(x *mat.Dense, train bool) *mat.Dense
	Backward(grad *mat.Dense) *mat.Dense
	Params() []*Param
}

// KernelLayer is implemented by layers that expose the (A, G) per-sample
// factors consumed by SNGD-family and KFAC-family preconditioners.
type KernelLayer interface {
	Layer
	// SetCapture toggles per-sample capture; when off, Forward/Backward
	// skip the bookkeeping.
	SetCapture(on bool)
	// Capture returns the factors from the most recent forward/backward
	// pair: A is m×dIn (inputs, bias-augmented), G is m×dOut (per-sample
	// output gradients scaled to sum convention, i.e. batch-size × the
	// mean-loss backward signal).
	Capture() (A, G *mat.Dense)
	// Weight returns the combined dIn×dOut parameter preconditioners act on.
	Weight() *Param
	// Dims returns (dIn, dOut) of the combined weight.
	Dims() (int, int)
}

// Network is a sequential container (residual blocks nest their own
// sub-stacks, so "sequential" composes to DAGs with skip connections).
type Network struct {
	Layers []Layer
	out    Shape
	params []*Param // cached Params() result (layer stack is immutable)
}

// NewNetwork builds the network for the given input shape, initializing all
// weights from rng.
func NewNetwork(in Shape, rng *mat.RNG, layers ...Layer) *Network {
	n := &Network{Layers: layers}
	s := in
	for _, l := range layers {
		s = l.Build(s, rng)
	}
	n.out = s
	return n
}

// OutShape returns the network's output shape.
func (n *Network) OutShape() Shape { return n.out }

// Forward runs the full stack. train selects training-mode behaviour
// (batch-norm batch statistics, capture bookkeeping).
func (n *Network) Forward(x *mat.Dense, train bool) *mat.Dense {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates the loss gradient through the stack and returns the
// gradient with respect to the input batch.
func (n *Network) Backward(grad *mat.Dense) *mat.Dense {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns every trainable parameter, depth-first. The slice is
// built once and cached — the layer stack is fixed after NewNetwork, and
// callers (ZeroGrad, optimizer steps) hit this every iteration.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Composite is implemented by container layers (residual blocks, U-Net
// levels) so KernelLayers can enumerate nested preconditionable layers.
type Composite interface {
	SubLayers() []Layer
}

// KernelLayers returns the preconditionable layers in forward order,
// descending into composite blocks.
func (n *Network) KernelLayers() []KernelLayer {
	var out []KernelLayer
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			if c, ok := l.(Composite); ok {
				walk(c.SubLayers())
				continue
			}
			if k, ok := l.(KernelLayer); ok {
				out = append(out, k)
			}
		}
	}
	walk(n.Layers)
	return out
}

// SetCapture toggles (A, G) capture on every kernel layer.
func (n *Network) SetCapture(on bool) {
	for _, kl := range n.KernelLayers() {
		kl.SetCapture(on)
	}
}
