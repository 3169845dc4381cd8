package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// DepthwiseConv2d convolves each input channel with its own k×k filter
// (channel multiplier 1) plus a per-channel bias — the spatial half of a
// MobileNet-style depthwise-separable convolution (pair it with a 1×1
// Conv2d for the pointwise half). Its block-diagonal weight does not fit
// the Khatri-Rao capture contract, so like BatchNorm it is trained
// first-order while the second-order methods precondition the dense
// layers — matching how production KFAC implementations treat depthwise
// layers.
type DepthwiseConv2d struct {
	K, Stride, Pad int

	shape   tensor.ConvShape // per-channel geometry (InC = OutC = 1)
	in, out Shape
	w       *Param // C×(k²+1): one filter row + bias per channel
	name    string

	lastX *mat.Dense

	// persistent buffers, reused across iterations
	y, gin      *mat.Dense
	cols, dcols []float64 // one channel's patches and their gradient (Backward)
}

// NewDepthwiseConv2d returns an unbuilt depthwise conv layer.
func NewDepthwiseConv2d(k, stride, pad int) *DepthwiseConv2d {
	return &DepthwiseConv2d{K: k, Stride: stride, Pad: pad}
}

// Name implements Layer.
func (c *DepthwiseConv2d) Name() string { return c.name }

// Build implements Layer.
func (c *DepthwiseConv2d) Build(in Shape, rng *mat.RNG) Shape {
	c.in = in
	c.shape = tensor.ConvShape{
		InC: 1, InH: in.H, InW: in.W,
		OutC: 1, KH: c.K, KW: c.K, Stride: c.Stride, Pad: c.Pad,
	}
	c.out = Shape{C: in.C, H: c.shape.OutH(), W: c.shape.OutW()}
	if c.out.H <= 0 || c.out.W <= 0 {
		panic(fmt.Sprintf("nn: depthwise conv output %v empty for input %v", c.out, in))
	}
	c.name = fmt.Sprintf("dwconv(%dx%d,c=%d,s%d,p%d)", c.K, c.K, in.C, c.Stride, c.Pad)
	kk := c.K * c.K
	w := mat.RandN(rng, in.C, kk+1, math.Sqrt(2/float64(kk)))
	for ch := 0; ch < in.C; ch++ {
		w.Set(ch, kk, 0) // bias
	}
	c.w = NewParam(c.name+".W", w)
	return c.out
}

// Forward implements Layer.
func (c *DepthwiseConv2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	c.lastX = x
	tt := c.out.H * c.out.W
	kk := c.K * c.K
	inHW := c.in.H * c.in.W
	c.y = mat.EnsureDense(c.y, m, c.out.Numel())
	y := c.y // fully overwritten below
	parallelBlocks(0, m, func(lo, hi int) {
		cols := mat.GetFloats(tt * kk)
		defer mat.PutFloats(cols)
		for i := lo; i < hi; i++ {
			xr, yr := x.Row(i), y.Row(i)
			for ch := 0; ch < c.in.C; ch++ {
				c.shape.Im2col(xr[ch*inHW:(ch+1)*inHW], cols)
				wr := c.w.W.Row(ch)
				bias := wr[kk]
				for p := 0; p < tt; p++ {
					yr[ch*tt+p] = mat.Dot(cols[p*kk:(p+1)*kk], wr[:kk]) + bias
				}
			}
		}
	})
	return y
}

// Backward implements Layer.
func (c *DepthwiseConv2d) Backward(grad *mat.Dense) *mat.Dense {
	if c.lastX == nil {
		panic("nn: DepthwiseConv2d.Backward before Forward")
	}
	m := grad.Rows()
	tt := c.out.H * c.out.W
	kk := c.K * c.K
	inHW := c.in.H * c.in.W
	c.gin = mat.EnsureDense(c.gin, m, c.in.Numel())
	gin := c.gin
	gin.Zero() // Col2im below accumulates
	// Serial over samples to keep gradient accumulation simple and
	// deterministic; the inner per-channel loops dominate anyway.
	c.cols, c.dcols = mat.EnsureFloats(c.cols, tt*kk), mat.EnsureFloats(c.dcols, tt*kk)
	cols, dcols := c.cols, c.dcols
	for i := 0; i < m; i++ {
		xr, gr := c.lastX.Row(i), grad.Row(i)
		for ch := 0; ch < c.in.C; ch++ {
			c.shape.Im2col(xr[ch*inHW:(ch+1)*inHW], cols)
			wr := c.w.W.Row(ch)
			wgr := c.w.Grad.Row(ch)
			for j := range dcols {
				dcols[j] = 0
			}
			for p := 0; p < tt; p++ {
				g := gr[ch*tt+p]
				if g == 0 {
					continue
				}
				patch := cols[p*kk : (p+1)*kk]
				for j := 0; j < kk; j++ {
					wgr[j] += g * patch[j]
					dcols[p*kk+j] = g * wr[j]
				}
				wgr[kk] += g
			}
			c.shape.Col2im(dcols, gin.Row(i)[ch*inHW:(ch+1)*inHW])
		}
	}
	return gin
}

// Params implements Layer.
func (c *DepthwiseConv2d) Params() []*Param { return []*Param{c.w} }
