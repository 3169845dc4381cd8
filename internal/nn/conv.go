package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// Conv2d is a 2D convolution implemented as im2col + GEMM with the bias
// folded into the combined weight: for each sample,
//
//	Y = [X̄, 1] * Wc,   X̄ = im2col(X) ∈ R^{T×(C·KH·KW)},  T = OH·OW,
//
// with Wc ∈ R^{(C·KH·KW+1)×OutC}.
//
// Per-sample capture follows Sec. IV of the paper: the spatial dimension is
// collapsed by summation, x̂ = Σᵢ X̄(i,:) and ĝ = Σᵢ Ḡ(i,:), so the layer
// exposes A ∈ R^{m×(C·KH·KW+1)} and G ∈ R^{m×OutC} exactly like a
// fully-connected layer — this is the CNN extension of SNGD (Eq. 11).
type Conv2d struct {
	OutC, K, Stride, Pad int
	// ExpandSpatial switches capture from the paper's spatial-sum
	// approximation (Sec. IV) to exact per-position rows: A and G then
	// have one row per (sample, spatial position), making AᵀG the exact
	// weight gradient at the cost of T× more kernel rows (the treatment
	// SENG-style methods use).
	ExpandSpatial bool

	shape   tensor.ConvShape
	in, out Shape
	dIn     int // patchLen+1
	wc      *Param
	name    string

	capture bool
	lastX   *mat.Dense // batch input (m × in.Numel())
	capA    *mat.Dense
	capG    *mat.Dense

	// Persistent pooled workspaces, reused across iterations (resized by
	// EnsureDense when the batch size changes). xbar is built once in
	// Forward and reused by Backward, which both removes the per-sample
	// im2col recomputation the seed implementation did and lets the whole
	// backward pass run as two stacked GEMMs.
	xbar    *mat.Dense // (m·T) × dIn unfolded batch
	ys      *mat.Dense // (m·T) × OutC forward product
	gy      *mat.Dense // (m·T) × OutC backward signal
	dcols   *mat.Dense // (m·T) × patchLen input-gradient columns
	wTmp    *mat.Dense // dIn × OutC weight-gradient staging
	y       *mat.Dense // m × out.Numel() forward output
	gin     *mat.Dense // m × in.Numel() input gradient
	wNoBias *mat.Dense // zero-copy row-prefix view of Wc without the bias row
}

// NewConv2d returns an unbuilt conv layer (square kernel k, given stride
// and padding).
func NewConv2d(outC, k, stride, pad int) *Conv2d {
	return &Conv2d{OutC: outC, K: k, Stride: stride, Pad: pad}
}

// Name implements Layer.
func (c *Conv2d) Name() string { return c.name }

// Build implements Layer.
func (c *Conv2d) Build(in Shape, rng *mat.RNG) Shape {
	c.in = in
	c.shape = tensor.ConvShape{
		InC: in.C, InH: in.H, InW: in.W,
		OutC: c.OutC, KH: c.K, KW: c.K, Stride: c.Stride, Pad: c.Pad,
	}
	c.out = Shape{C: c.OutC, H: c.shape.OutH(), W: c.shape.OutW()}
	if c.out.H <= 0 || c.out.W <= 0 {
		panic(fmt.Sprintf("nn: conv output %v is empty for input %v", c.out, in))
	}
	pl := c.shape.PatchLen()
	c.dIn = pl + 1
	c.name = fmt.Sprintf("conv(%dx%d,%d->%d,s%d,p%d)", c.K, c.K, in.C, c.OutC, c.Stride, c.Pad)
	fanIn := float64(pl)
	w := mat.RandN(rng, c.dIn, c.OutC, math.Sqrt(2/fanIn))
	for j := 0; j < c.OutC; j++ {
		w.Set(pl, j, 0) // bias row
	}
	c.wc = NewParam(c.name+".Wc", w)
	return c.out
}

// Forward implements Layer: the whole batch is unfolded into one
// (m·T)×(patchLen+1) matrix and convolved with a single large GEMM, which
// the mat kernel parallelizes across cores — much better arithmetic
// intensity than one small GEMM per sample.
func (c *Conv2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	c.lastX = x
	tt := c.out.H * c.out.W
	pl := c.shape.PatchLen()
	c.y = mat.EnsureDense(c.y, m, c.out.Numel())
	y := c.y // fully overwritten below

	c.xbar = mat.EnsureDense(c.xbar, m*tt, c.dIn)
	xbar := c.xbar
	parallelSamples(m, func(i int, _ []float64) {
		rows := xbar.Data()[i*tt*c.dIn : (i+1)*tt*c.dIn]
		c.shape.Im2colStride(x.Row(i), rows, c.dIn)
		for p := 0; p < tt; p++ {
			rows[p*c.dIn+pl] = 1
		}
	}, 0)

	c.ys = mat.EnsureDense(c.ys, m*tt, c.OutC)
	ys := mat.MulInto(c.ys, xbar, c.wc.W) // (m·T) × OutC, parallel GEMM
	parallelSamples(m, func(i int, _ []float64) {
		yrow := y.Row(i)
		for p := 0; p < tt; p++ {
			yr := ys.Row(i*tt + p)
			for ch := 0; ch < c.OutC; ch++ {
				yrow[ch*tt+p] = yr[ch]
			}
		}
	}, 0)
	return y
}

// parallelSamples runs fn(i, scratch) for i in [0, m) across GOMAXPROCS
// goroutines with a STATIC block partition (worker w gets a contiguous
// range), so the sample→worker assignment — and therefore any
// floating-point reduction grouping derived from it — is deterministic for
// a fixed GOMAXPROCS. Each goroutine owns a scratch buffer of scratchLen
// floats.
func parallelSamples(m int, fn func(i int, scratch []float64), scratchLen int) {
	nw := runtime.GOMAXPROCS(0)
	if nw > m {
		nw = m
	}
	if nw <= 1 {
		scratch := mat.GetFloats(scratchLen)
		for i := 0; i < m; i++ {
			fn(i, scratch)
		}
		mat.PutFloats(scratch)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		lo := w * m / nw
		hi := (w + 1) * m / nw
		go func(lo, hi int) {
			defer wg.Done()
			scratch := mat.GetFloats(scratchLen)
			for i := lo; i < hi; i++ {
				fn(i, scratch)
			}
			mat.PutFloats(scratch)
		}(lo, hi)
	}
	wg.Wait()
}

// Backward implements Layer. The unfolded batch X̄ persisted by Forward
// turns the whole pass into two stacked GEMMs — X̄ᵀḠ for the weight
// gradient and ḠWᵀ for the input-gradient columns — instead of the seed's
// per-sample im2col recomputation and per-sample small products.
func (c *Conv2d) Backward(grad *mat.Dense) *mat.Dense {
	if c.lastX == nil || c.xbar == nil {
		panic("nn: Conv2d.Backward before Forward")
	}
	m := grad.Rows()
	tt := c.out.H * c.out.W
	pl := c.shape.PatchLen()
	c.gin = mat.EnsureDense(c.gin, m, c.in.Numel())
	gin := c.gin
	gin.Zero() // Col2im below accumulates

	// Reshape the incoming NCHW gradient to the stacked (m·T)×OutC layout.
	c.gy = mat.EnsureDense(c.gy, m*tt, c.OutC)
	gy := c.gy
	parallelSamples(m, func(i int, _ []float64) {
		grow := grad.Row(i)
		for p := 0; p < tt; p++ {
			gr := gy.Row(i*tt + p)
			for ch := 0; ch < c.OutC; ch++ {
				gr[ch] = grow[ch*tt+p]
			}
		}
	}, 0)

	// Weight gradient in one stacked product: X̄ᵀḠ = Σᵢ X̄ᵢᵀ Ḡᵢ.
	c.wTmp = mat.EnsureDense(c.wTmp, c.dIn, c.OutC)
	mat.MulTAInto(c.wTmp, c.xbar, gy)
	c.wc.Grad.AddMat(c.wTmp)

	// Capture per-sample factors under the sum convention (G scaled by
	// batch size m): spatially summed (Sec. IV) or one row per position
	// when ExpandSpatial is set.
	if c.capture {
		if c.ExpandSpatial {
			c.capA = mat.EnsureDense(c.capA, m*tt, c.dIn)
			c.capA.CopyFrom(c.xbar)
			c.capG = mat.EnsureDense(c.capG, m*tt, c.OutC)
			c.capG.CopyFrom(gy)
			c.capG.Scale(float64(m))
		} else {
			c.capA = mat.EnsureDense(c.capA, m, c.dIn)
			c.capG = mat.EnsureDense(c.capG, m, c.OutC)
			capA, capG := c.capA, c.capG
			capA.Zero()
			capG.Zero()
			xbar := c.xbar
			parallelSamples(m, func(i int, _ []float64) {
				ca, cg := capA.Row(i), capG.Row(i)
				for p := 0; p < tt; p++ {
					xr, gr := xbar.Row(i*tt+p), gy.Row(i*tt+p)
					for j := range ca {
						ca[j] += xr[j]
					}
					for j := range cg {
						cg[j] += gr[j] * float64(m)
					}
				}
			}, 0)
		}
	}

	// Input gradient: one stacked ḠWᵀ (bias row dropped via a zero-copy
	// row-prefix view of Wc), then per-sample col2im folds. Col2im
	// accumulates, which is why gin must start zeroed.
	if c.wNoBias == nil {
		// Wc's backing array is stable for the life of the layer, so the
		// bias-free view is built once.
		c.wNoBias = mat.NewDenseData(pl, c.OutC, c.wc.W.Data()[:pl*c.OutC])
	}
	wNoBias := c.wNoBias
	c.dcols = mat.EnsureDense(c.dcols, m*tt, pl)
	mat.MulTBInto(c.dcols, gy, wNoBias)
	dcols := c.dcols
	parallelSamples(m, func(i int, _ []float64) {
		c.shape.Col2im(dcols.Data()[i*tt*pl:(i+1)*tt*pl], gin.Row(i))
	}, 0)
	return gin
}

// Params implements Layer.
func (c *Conv2d) Params() []*Param { return []*Param{c.wc} }

// SetCapture implements KernelLayer.
func (c *Conv2d) SetCapture(on bool) { c.capture = on }

// Capture implements KernelLayer.
func (c *Conv2d) Capture() (*mat.Dense, *mat.Dense) { return c.capA, c.capG }

// Weight implements KernelLayer.
func (c *Conv2d) Weight() *Param { return c.wc }

// Dims implements KernelLayer.
func (c *Conv2d) Dims() (int, int) { return c.dIn, c.OutC }
