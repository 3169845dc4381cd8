package nn

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// Conv2d is a 2D convolution implemented as an implicit GEMM with the bias
// folded into the combined weight: for each sample,
//
//	Y = [X̄, 1] * Wc,   X̄ = im2col(X) ∈ R^{T×(C·KH·KW)},  T = OH·OW,
//
// with Wc ∈ R^{(C·KH·KW+1)×OutC}. [X̄, 1] is never written out: in a
// zero-padded copy of the sample with one more channel of ones, its element
// (p, k) lies at pos[p]+koff[k], and the GEMM reads it there.
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
	lastX   *mat.Dense // batch input (m × in.Numel()); Backward pads it again
	capA    *mat.Dense
	capG    *mat.Dense

	// The stacked (m·T)-row batch — the forward product, Ḡ, the
	// input-gradient columns — never exists as a whole: Forward and Backward
	// walk it in strips of mat.StripRows rows, each multiplied and scattered
	// or folded while it is still in cache. A strip's rows of [X̄, 1] are
	// mat.Gathered{xpad, rows, koff}, and their transpose the same with the
	// tables swapped: xpad holds the strip's samples, padLen values each —
	// InC zero-padded planes and a plane of ones, so the bias column is an
	// offset like any other; borders and ones are written when xpad is
	// allocated and each strip copies interiors only (pad). strip is the
	// pooled storage of one strip of the two matrices that are written out;
	// [r0, r1) are the stacked rows of the strip being worked on, i0 the
	// first sample with rows in it, and yg, dcols the headers pointed at it
	// (setStrip). The per-strip sample loops (pad, scatter, load, fold) run
	// under mat.Parallel and take samples [i0+lo, i0+hi).
	// Backward folds ḠWᵀ back through the same tables into gpad: one padded
	// input gradient without the plane of ones per slot, as many slots as a
	// strip has samples, sample i in slot i mod that count (fold).
	koff    []int // column k of [X̄, 1]: c·PH·PW + ky·PW + kx; the bias column InC·PH·PW
	pos     []int // output position p: oy·Stride·PW + ox·Stride
	padLen  int   // (InC+1)·PH·PW
	slotLen int   // InC·PH·PW
	xpad    []float64
	gpad    []float64 // checked out of the pool while Backward runs
	rows    []int     // stacked row r0+r: its sample's slot in xpad + pos
	strip   []float64
	r0, r1  int
	i0      int
	yg      mat.Dense  // strip of the forward product or of Ḡ, rows × OutC
	dcols   mat.Dense  // strip of input-gradient columns, rows × patchLen
	wTmp    *mat.Dense // dIn × OutC weight-gradient staging
	y       *mat.Dense // m × out.Numel() forward output
	gin     *mat.Dense // m × in.Numel() input gradient
	grad    *mat.Dense // Backward's output gradient, while Backward runs
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

	kk, pw := c.K*c.K, in.W+2*c.Pad
	plane := (in.H + 2*c.Pad) * pw
	c.koff = make([]int, c.dIn)
	for k := range c.koff { // k = pl is channel InC, kernel element (0, 0)
		c.koff[k] = k/kk*plane + k%kk/c.K*pw + k%c.K
	}
	c.pos = make([]int, c.out.H*c.out.W)
	for p := range c.pos {
		c.pos[p] = (p/c.out.W*pw + p%c.out.W) * c.Stride
	}
	c.slotLen = in.C * plane
	c.padLen = c.slotLen + plane
	return c.out
}

// Forward implements Layer: strip by strip, the strip's samples are padded,
// its rows of [X̄, 1] multiplied by Wc where they lie (the mat kernel
// parallelizes inside the strip) and the product scattered into the NCHW
// output.
func (c *Conv2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	c.lastX = x
	tt := c.out.H * c.out.W
	c.y = mat.EnsureDense(c.y, m, c.out.Numel()) // fully overwritten by scatter
	for r0 := 0; r0 < m*tt; r0 += mat.StripRows {
		n := c.setStrip(r0, m*tt)
		mat.Parallel(n, 1, c, (*Conv2d).pad)
		mat.MulGatheredInto(&c.yg, mat.Gathered{Data: c.xpad, Row: c.rows, Col: c.koff}, c.wc.W, m*tt, c.dIn, false)
		mat.Parallel(n, 1, c, (*Conv2d).scatter)
	}
	return c.y
}

// setStrip makes the strip of the n-row stacked batch that starts at row r0
// the current one — its bounds, the headers pointed at that many rows of the
// strip storage, the row table, room in xpad — and returns how many samples
// have positions in it, from i0 on.
func (c *Conv2d) setStrip(r0, n int) int {
	tt, pl := c.out.H*c.out.W, c.dIn-1
	c.r0, c.r1 = r0, min(r0+mat.StripRows, n)
	h := c.r1 - r0
	c.strip = mat.EnsureFloats(c.strip, min(mat.StripRows, n)*(c.OutC+pl))
	c.yg.Wrap(h, c.OutC, c.strip[:h*c.OutC])
	c.dcols.Wrap(h, pl, c.strip[h*c.OutC:][:h*pl])
	i0, i1 := r0/tt, (c.r1+tt-1)/tt
	c.i0 = i0
	if need := c.stripSamples(n) * c.padLen; len(c.xpad) < need {
		mat.PutFloats(c.xpad)
		c.xpad = mat.GetFloats(need)
		for s := c.padLen; s <= need; s += c.padLen {
			for k := s - (c.padLen - c.slotLen); k < s; k++ {
				c.xpad[k] = 1
			}
		}
	}
	c.rows = c.rows[:0]
	for i := i0; i < i1; i++ {
		p0, p1, _ := c.segment(i)
		for _, off := range c.pos[p0:p1] {
			c.rows = append(c.rows, (i-i0)*c.padLen+off)
		}
	}
	return i1 - i0
}

// stripSamples returns how many samples a strip of the n-row stacked batch
// can touch: the batch, or the (StripRows-1)/T + 2 of a strip that starts
// inside one.
func (c *Conv2d) stripSamples(n int) int {
	tt := c.out.H * c.out.W
	return min(n/tt, (mat.StripRows-1)/tt+2)
}

// segment returns the positions [p0, p1) of sample i that lie in the current
// strip and the strip row they start at.
func (c *Conv2d) segment(i int) (p0, p1, row int) {
	tt := c.out.H * c.out.W
	p0, p1 = max(c.r0-i*tt, 0), min(c.r1-i*tt, tt)
	return p0, p1, i*tt + p0 - c.r0
}

// pad copies the strip's samples [i0+lo, i0+hi) of the saved input into
// their slots of xpad, interiors only: the zero borders and the plane of
// ones are never written.
func (c *Conv2d) pad(lo, hi int) {
	h, w, ph, pw := c.in.H, c.in.W, c.in.H+2*c.Pad, c.in.W+2*c.Pad
	for i := lo; i < hi; i++ {
		src, dst := c.lastX.Row(c.i0+i), c.xpad[i*c.padLen:]
		for ch := 0; ch < c.in.C; ch++ {
			for y := 0; y < h; y++ {
				d := (ch*ph+y+c.Pad)*pw + c.Pad
				copy(dst[d:d+w], src[(ch*h+y)*w:][:w])
			}
		}
	}
}

// scatter writes the strip's rows of the forward product for samples
// [i0+lo, i0+hi) into their NCHW output rows.
func (c *Conv2d) scatter(lo, hi int) {
	tt := c.out.H * c.out.W
	for i := c.i0 + lo; i < c.i0+hi; i++ {
		p0, p1, row := c.segment(i)
		yrow := c.y.Row(i)
		for p := p0; p < p1; p++ {
			for ch, v := range c.yg.Row(row + p - p0) {
				yrow[ch*tt+p] = v
			}
		}
	}
}

// Backward implements Layer. Per strip: pad the samples again and gather Ḡ
// from the NCHW gradient, add the strip's k-slice to the weight gradient X̄ᵀḠ,
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
	c.gin = mat.EnsureDense(c.gin, m, c.in.Numel()) // fully overwritten by fold
	c.gpad = mat.GetFloats(c.stripSamples(m*tt) * c.slotLen)
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
	c.grad = grad
	for r0 := 0; r0 < m*tt; r0 += mat.StripRows {
		n := c.setStrip(r0, m*tt)
		mat.Parallel(n, 1, c, (*Conv2d).load)
		mat.MulGatheredInto(c.wTmp, mat.Gathered{Data: c.xpad, Row: c.koff, Col: c.rows}, &c.yg, c.dIn, m*tt, r0 > 0)
		// The bias row is dropped via the row-prefix view of Wc.
		mat.MulStripInto(&c.dcols, &c.yg, c.wNoBias, false, true, m*tt, false)
		mat.Parallel(n, 1, c, (*Conv2d).fold)
	}
	c.grad = nil
	mat.PutFloats(c.gpad)
	c.gpad = nil
	c.wc.Grad.AddMat(c.wTmp)
	return c.gin
}

// load pads the strip's samples [i0+lo, i0+hi) again, gathers their rows of
// Ḡ from the NCHW gradient and adds them to the capture.
func (c *Conv2d) load(lo, hi int) {
	c.pad(lo, hi)
	tt, pl := c.out.H*c.out.W, c.dIn-1
	gy, scale := &c.yg, float64(c.grad.Rows())
	for i := c.i0 + lo; i < c.i0+hi; i++ {
		p0, p1, row := c.segment(i)
		grow := c.grad.Row(i)
		for p := p0; p < p1; p++ {
			gr := gy.Row(row + p - p0)
			for ch := range gr {
				gr[ch] = grow[ch*tt+p]
			}
		}
		if !c.capture {
			continue
		}
		grows := gy.Data()[row*c.OutC : (row+p1-p0)*c.OutC]
		if c.ExpandSpatial {
			xrows := c.capA.Data()[(i*tt+p0)*c.dIn : (i*tt+p1)*c.dIn]
			c.shape.Im2colRange(c.lastX.Row(i), xrows, c.dIn, p0, p1)
			for k := pl; k < len(xrows); k += c.dIn {
				xrows[k] = 1
			}
			cg := c.capG.Data()[(i*tt+p0)*c.OutC:]
			for k, v := range grows {
				cg[k] = v * scale
			}
			continue
		}
		ca, cg := c.capA.Row(i), c.capG.Row(i)
		for _, r := range c.rows[row : row+p1-p0] {
			xrow := c.xpad[r:]
			for j, k := range c.koff {
				ca[j] += xrow[k]
			}
			for j := range cg {
				cg[j] += float64(grows[j] * scale)
			}
			grows = grows[c.OutC:]
		}
	}
}

// fold adds the strip's rows of ḠWᵀ for samples [i0+lo, i0+hi) into their
// slots of gpad, clearing a slot at the sample's first position and copying
// its interior into the input gradient at the last: position p adds its
// element k at pos[p]+koff[k]. A sample cut by the strip's end keeps its
// partial sums in its slot until the next strip; no other sample takes the
// slot before then. Every element gets its positions' contributions in
// ascending order, starting from +0, and what lands on the border came from
// the padding and is dropped.
func (c *Conv2d) fold(lo, hi int) {
	tt, pl := c.out.H*c.out.W, c.dIn-1
	h, w, ph, pw := c.in.H, c.in.W, c.in.H+2*c.Pad, c.in.W+2*c.Pad
	koff, slots := c.koff[:pl], len(c.gpad)/c.slotLen
	for i := c.i0 + lo; i < c.i0+hi; i++ {
		p0, p1, row := c.segment(i)
		slot := c.gpad[i%slots*c.slotLen:][:c.slotLen]
		if p0 == 0 {
			clear(slot)
		}
		cols := c.dcols.Data()[row*pl:]
		for _, off := range c.pos[p0:p1] {
			d, src := slot[off:], cols[:len(koff)]
			for k, o := range koff {
				d[o] += src[k]
			}
			cols = cols[pl:]
		}
		if p1 < tt {
			continue
		}
		dst := c.gin.Row(i)
		for ch := 0; ch < c.in.C; ch++ {
			for y := 0; y < h; y++ {
				s := (ch*ph+y+c.Pad)*pw + c.Pad
				copy(dst[(ch*h+y)*w:][:w], slot[s:s+w])
			}
		}
	}
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
