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
	lastX   *mat.Dense // batch input (m × in.Numel()); Backward unfolds it again
	capA    *mat.Dense
	capG    *mat.Dense

	// The stacked (m·T)-row batch — X̄, the forward product, Ḡ, the
	// input-gradient columns — never exists as a whole: Forward and Backward
	// walk it in strips of mat.StripRows rows, each unfolded, multiplied and
	// scattered or folded while it is still in cache, and Backward unfolds
	// its strips from lastX a second time instead of reading back a stored
	// X̄. strip is the pooled storage of one strip of each matrix; [r0, r1)
	// are the stacked rows of the strip being worked on and xs, yg, dcols
	// the headers pointed at it (setStrip).
	strip   []float64
	r0, r1  int
	xs      mat.Dense  // strip of [X̄, 1], rows × dIn
	yg      mat.Dense  // strip of the forward product or of Ḡ, rows × OutC
	dcols   mat.Dense  // strip of input-gradient columns, rows × patchLen
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

// Forward implements Layer: strip by strip, rows of the stacked batch are
// unfolded into [X̄, 1], multiplied by Wc (the mat kernel parallelizes
// inside the strip) and scattered into the NCHW output.
func (c *Conv2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	c.lastX = x
	tt := c.out.H * c.out.W
	c.y = mat.EnsureDense(c.y, m, c.out.Numel())
	y, ys := c.y, &c.yg // y is fully overwritten below
	unfold := c.unfold  // bound once: a method value per strip would allocate per strip
	scatter := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p0, p1, row := c.segment(i)
			yrow := y.Row(i)
			for p := p0; p < p1; p++ {
				for ch, v := range ys.Row(row + p - p0) {
					yrow[ch*tt+p] = v
				}
			}
		}
	}
	for r0 := 0; r0 < m*tt; r0 += mat.StripRows {
		i0, i1 := c.setStrip(r0, m*tt)
		parallelBlocks(i0, i1, unfold)
		mat.MulStripInto(ys, &c.xs, c.wc.W, false, false, m*tt, false)
		parallelBlocks(i0, i1, scatter)
	}
	return y
}

// setStrip makes the strip of the n-row stacked batch that starts at row r0
// the current one — its bounds, and the headers pointed at that many rows of
// the strip storage — and returns the samples [i0, i1) with positions in it.
func (c *Conv2d) setStrip(r0, n int) (i0, i1 int) {
	tt, pl := c.out.H*c.out.W, c.dIn-1
	c.r0, c.r1 = r0, min(r0+mat.StripRows, n)
	h := c.r1 - r0
	c.strip = mat.EnsureFloats(c.strip, min(mat.StripRows, n)*(c.dIn+c.OutC+pl))
	c.xs.Wrap(h, c.dIn, c.strip[:h*c.dIn])
	c.yg.Wrap(h, c.OutC, c.strip[h*c.dIn:][:h*c.OutC])
	c.dcols.Wrap(h, pl, c.strip[h*(c.dIn+c.OutC):][:h*pl])
	return r0 / tt, (c.r1 + tt - 1) / tt
}

// segment returns the positions [p0, p1) of sample i that lie in the current
// strip and the strip row they start at.
func (c *Conv2d) segment(i int) (p0, p1, row int) {
	tt := c.out.H * c.out.W
	p0, p1 = max(c.r0-i*tt, 0), min(c.r1-i*tt, tt)
	return p0, p1, i*tt + p0 - c.r0
}

// unfold writes the current strip's rows of [X̄, 1] for samples [lo, hi) of
// the saved input.
func (c *Conv2d) unfold(lo, hi int) {
	for i := lo; i < hi; i++ {
		p0, p1, row := c.segment(i)
		rows := c.xs.Data()[row*c.dIn : (row+p1-p0)*c.dIn]
		c.shape.Im2colRange(c.lastX.Row(i), rows, c.dIn, p0, p1)
		for k := c.dIn - 1; k < len(rows); k += c.dIn {
			rows[k] = 1
		}
	}
}

// parallelBlocks splits [lo, hi) into at most GOMAXPROCS contiguous blocks
// — a STATIC partition, so which goroutine owns an index, and any
// floating-point grouping derived from that, is fixed for a fixed GOMAXPROCS
// — and runs fn on each; a single block runs on the calling goroutine.
func parallelBlocks(lo, hi int, fn func(lo, hi int)) {
	nw := min(runtime.GOMAXPROCS(0), hi-lo)
	if nw <= 1 {
		fn(lo, hi)
		return
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo+w*(hi-lo)/nw, lo+(w+1)*(hi-lo)/nw)
	}
	wg.Wait()
}

// Backward implements Layer. Per strip: unfold X̄ again and gather Ḡ from
// the NCHW gradient, add the strip's k-slice to the weight gradient X̄ᵀḠ,
// take its rows of the capture, and fold its rows of ḠWᵀ into the input
// gradient. Strips ascend over the global row index and every sum below
// takes them in that order, so the result is the whole-batch products' bit
// for bit and does not depend on GOMAXPROCS.
func (c *Conv2d) Backward(grad *mat.Dense) *mat.Dense {
	if c.lastX == nil {
		panic("nn: Conv2d.Backward before Forward")
	}
	m := grad.Rows()
	if m != c.lastX.Rows() {
		panic(fmt.Sprintf("nn: Conv2d.Backward gradient has %d rows, Forward's input had %d", m, c.lastX.Rows()))
	}
	tt := c.out.H * c.out.W
	pl := c.shape.PatchLen()
	c.gin = mat.EnsureDense(c.gin, m, c.in.Numel())
	gin := c.gin
	gin.Zero() // Col2imRange below accumulates
	c.wTmp = mat.EnsureDense(c.wTmp, c.dIn, c.OutC)
	if c.wNoBias == nil {
		// Wc's backing array is stable for the life of the layer, so the
		// bias-free view is built once.
		c.wNoBias = mat.NewDenseData(pl, c.OutC, c.wc.W.Data()[:pl*c.OutC])
	}
	// Per-sample factors under the sum convention (G scaled by batch size
	// m): spatially summed (Sec. IV), or one row per position when
	// ExpandSpatial is set — the one whole-batch matrix left, because it is
	// the output.
	if c.capture {
		capRows := m
		if c.ExpandSpatial {
			capRows = m * tt
		}
		c.capA = mat.EnsureDense(c.capA, capRows, c.dIn)
		c.capG = mat.EnsureDense(c.capG, capRows, c.OutC)
		if !c.ExpandSpatial {
			c.capA.Zero()
			c.capG.Zero()
		}
	}
	xs, gy, dcols, capA, capG, scale := &c.xs, &c.yg, &c.dcols, c.capA, c.capG, float64(m)
	load := func(lo, hi int) {
		c.unfold(lo, hi)
		for i := lo; i < hi; i++ {
			p0, p1, row := c.segment(i)
			grow := grad.Row(i)
			for p := p0; p < p1; p++ {
				gr := gy.Row(row + p - p0)
				for ch := range gr {
					gr[ch] = grow[ch*tt+p]
				}
			}
			if !c.capture {
				continue
			}
			xrows := xs.Data()[row*c.dIn : (row+p1-p0)*c.dIn]
			grows := gy.Data()[row*c.OutC : (row+p1-p0)*c.OutC]
			if c.ExpandSpatial {
				copy(capA.Data()[(i*tt+p0)*c.dIn:], xrows)
				cg := capG.Data()[(i*tt+p0)*c.OutC:]
				for k, v := range grows {
					cg[k] = v * scale
				}
				continue
			}
			ca, cg := capA.Row(i), capG.Row(i)
			for ; len(xrows) > 0; xrows, grows = xrows[c.dIn:], grows[c.OutC:] {
				for j := range ca {
					ca[j] += xrows[j]
				}
				for j := range cg {
					cg[j] += grows[j] * scale
				}
			}
		}
	}
	fold := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p0, p1, row := c.segment(i)
			c.shape.Col2imRange(dcols.Data()[row*pl:(row+p1-p0)*pl], gin.Row(i), p0, p1)
		}
	}
	for r0 := 0; r0 < m*tt; r0 += mat.StripRows {
		i0, i1 := c.setStrip(r0, m*tt)
		parallelBlocks(i0, i1, load)
		mat.MulStripInto(c.wTmp, xs, gy, true, false, m*tt, r0 > 0)
		// The bias row is dropped via the row-prefix view of Wc.
		mat.MulStripInto(dcols, gy, c.wNoBias, false, true, m*tt, false)
		parallelBlocks(i0, i1, fold)
	}
	c.wc.Grad.AddMat(c.wTmp)
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
