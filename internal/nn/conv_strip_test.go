package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mat"
)

// wholeBatchConv is the convolution as it was computed before the strip
// pipeline: the whole batch unfolded into one (m·T)-row X̄, three one-shot
// products over it, per-sample scatter, capture and fold. The strip pipeline
// must reproduce every output of it by math.Float64bits.
func wholeBatchConv(c *Conv2d, x, grad *mat.Dense) (y, gin, wgrad, capA, capG *mat.Dense) {
	m, tt, pl := x.Rows(), c.out.H*c.out.W, c.shape.PatchLen()
	xbar := mat.NewDense(m*tt, c.dIn)
	for i := 0; i < m; i++ {
		rows := xbar.Data()[i*tt*c.dIn : (i+1)*tt*c.dIn]
		c.shape.Im2colRange(x.Row(i), rows, c.dIn, 0, tt)
		for p := 0; p < tt; p++ {
			rows[p*c.dIn+pl] = 1
		}
	}
	ys := mat.MulInto(mat.NewDense(m*tt, c.OutC), xbar, c.wc.W)
	y, gy := mat.NewDense(m, c.out.Numel()), mat.NewDense(m*tt, c.OutC)
	for i := 0; i < m; i++ {
		for p := 0; p < tt; p++ {
			for ch := 0; ch < c.OutC; ch++ {
				y.Row(i)[ch*tt+p] = ys.At(i*tt+p, ch)
				gy.Set(i*tt+p, ch, grad.Row(i)[ch*tt+p])
			}
		}
	}
	wgrad = mat.NewDense(c.dIn, c.OutC).AddMat(mat.MulTAInto(mat.NewDense(c.dIn, c.OutC), xbar, gy))
	if c.ExpandSpatial {
		capA, capG = xbar.Clone(), gy.Clone().Scale(float64(m))
	} else {
		capA, capG = mat.NewDense(m, c.dIn), mat.NewDense(m, c.OutC)
		for i := 0; i < m; i++ {
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
		}
	}
	wNoBias := mat.NewDenseData(pl, c.OutC, c.wc.W.Data()[:pl*c.OutC])
	dcols := mat.MulTBInto(mat.NewDense(m*tt, pl), gy, wNoBias)
	gin = mat.NewDense(m, c.in.Numel())
	for i := 0; i < m; i++ {
		c.shape.Col2im(dcols.Data()[i*tt*pl:(i+1)*tt*pl], gin.Row(i))
	}
	return y, gin, wgrad, capA, capG
}

func sameBits(t *testing.T, what string, want, got *mat.Dense) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: dims %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(w) != math.Float64bits(g) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, g, w)
		}
	}
}

// stripShapes name what each geometry is there for; rows = m·T.
var stripShapes = []struct {
	name                string
	in                  Shape
	outC, k, stride, pd int
	m                   int
}{
	{"T=100 does not divide 512, 700 rows", Shape{C: 3, H: 10, W: 10}, 5, 3, 1, 1, 7},
	{"T=576 > 512, strips cut samples, 1152 rows", Shape{C: 2, H: 24, W: 24}, 4, 3, 1, 1, 2},
	{"192 rows < 512, one short strip", Shape{C: 4, H: 8, W: 8}, 6, 3, 1, 1, 3},
	{"stem: dIn·OutC = 224 < 512, whole product packed, 1536 rows", Shape{C: 3, H: 16, W: 16}, 8, 3, 1, 1, 6},
	{"stem with a 1-row tail strip, 1537 rows", Shape{C: 3, H: 1, W: 53}, 8, 3, 1, 1, 29},
	{"stride 2, 640 rows", Shape{C: 8, H: 16, W: 16}, 16, 3, 2, 1, 10},
	{"1x1 stride-2 projection, 768 rows", Shape{C: 8, H: 16, W: 16}, 16, 1, 2, 0, 12},
	{"T=16, 32 samples a strip, 656 rows", Shape{C: 16, H: 4, W: 4}, 32, 3, 1, 1, 41},
	{"dIn = 577 > kc, 600 rows", Shape{C: 64, H: 10, W: 10}, 8, 3, 1, 1, 6},
	{"K=5 pad 2, 588 rows", Shape{C: 2, H: 14, W: 14}, 6, 5, 1, 2, 3},
	{"K=3 pad 0: no border, 720 rows", Shape{C: 3, H: 14, W: 14}, 8, 3, 1, 0, 5},
	{"stride 2 on an odd 15x15 input, 576 rows", Shape{C: 4, H: 15, W: 15}, 8, 3, 2, 1, 9},
	{"non-square 6x20 input, 600 rows", Shape{C: 3, H: 6, W: 20}, 8, 3, 1, 1, 5},
	{"OutC = 1: the one-column small products, 576 rows", Shape{C: 4, H: 12, W: 12}, 1, 3, 1, 1, 4},
	{specialValues + ", 800 rows", Shape{C: 3, H: 10, W: 10}, 8, 3, 1, 1, 8},
}

// specialValues marks the shape whose x and Wc carry ±0, denormals, ±Inf and
// NaN: a padding zero is a stored +0 on both sides, so an infinite weight
// against it gives the NaN it always gave, and -0 sums keep their sign.
const specialValues = "special values in x and Wc"

func sprinkleSpecials(rng *mat.RNG, d []float64) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	for n := 0; n < 2*len(specials); n++ {
		d[rng.Intn(len(d))] = specials[n%len(specials)]
	}
}

// TestConvStripEqualsWholeBatch holds the strip pipeline against the
// whole-batch reference on every shape, in both capture modes and both
// kernel families, at GOMAXPROCS 1, 2 and 4 — the last of which must not
// change a bit of any output either.
func TestConvStripEqualsWholeBatch(t *testing.T) {
	defer mat.SetFMAKernels(mat.FMAKernels())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for si, s := range stripShapes {
		for _, expand := range []bool{false, true} {
			rng := mat.NewRNG(uint64(100 + si))
			c := NewConv2d(s.outC, s.k, s.stride, s.pd)
			c.ExpandSpatial = expand
			c.Build(s.in, rng)
			c.SetCapture(true)
			for j := 0; j < c.OutC; j++ {
				c.wc.W.Set(c.dIn-1, j, rng.Norm()) // a bias that is not zero
			}
			x := mat.RandN(rng, s.m, s.in.Numel(), 1)
			grad := mat.RandN(rng, s.m, c.out.Numel(), 1)
			if strings.HasPrefix(s.name, specialValues) {
				sprinkleSpecials(rng, x.Data())
				sprinkleSpecials(rng, c.wc.W.Data())
			}
			for _, fma := range []bool{false, true} {
				mat.SetFMAKernels(fma)
				runtime.GOMAXPROCS(1)
				y, gin, wgrad, capA, capG := wholeBatchConv(c, x, grad)
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					what := fmt.Sprintf("%s expand=%v fma=%v procs=%d: ", s.name, expand, fma, procs)
					c.wc.Grad.Zero()
					sameBits(t, what+"y", y, c.Forward(x, true))
					sameBits(t, what+"gin", gin, c.Backward(grad))
					sameBits(t, what+"Wc.Grad", wgrad, c.wc.Grad)
					sameBits(t, what+"capA", capA, c.capA)
					sameBits(t, what+"capG", capG, c.capG)
				}
			}
		}
	}
}

// TestConvBackwardRowMismatchPanics: Backward pads the input Forward saw,
// so a gradient for a different batch is a caller bug reported as such.
func TestConvBackwardRowMismatchPanics(t *testing.T) {
	rng := mat.NewRNG(3)
	c := NewConv2d(2, 3, 1, 1)
	c.Build(Shape{C: 1, H: 4, W: 4}, rng)
	c.Forward(mat.RandN(rng, 3, 16, 1), true)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "gradient has 2 rows") {
			t.Fatalf("panic %q does not name the row mismatch", msg)
		}
	}()
	c.Backward(mat.RandN(rng, 2, 32, 1))
}

// convStepAllocs is measured: Forward's pad and scatter, Backward's load
// and fold.
const convStepAllocs = 4

// TestConvStripAllocs pins the allocations of a warmed Forward+Backward —
// the four per-call closures and nothing per strip: a 32-strip batch costs
// what a 1-strip batch does.
func TestConvStripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, so the GEMM's pooled panels reallocate")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, m := range []int{2, 64} { // 512 and 16384 rows
		rng := mat.NewRNG(9)
		c := NewConv2d(8, 3, 1, 1)
		c.Build(Shape{C: 8, H: 16, W: 16}, rng)
		c.SetCapture(true)
		x, grad := mat.RandN(rng, m, 8*256, 1), mat.RandN(rng, m, 8*256, 1)
		step := func() {
			c.Forward(x, true)
			c.Backward(grad)
		}
		step()
		if got := testing.AllocsPerRun(5, step); got != convStepAllocs {
			t.Errorf("m=%d: %v allocs per Forward+Backward, want %d", m, got, convStepAllocs)
		}
	}
}

// oldReLU is ReLU.Forward's loop as it stood before the branch-free one.
func oldReLU(xd, od, md []float64) {
	for i, v := range xd {
		if v > 0 {
			od[i] = v
			md[i] = 1
		} else {
			od[i] = 0
			md[i] = 0
		}
	}
}

// TestReLUEqualsBranchingLoop: outputs and masks of the branch-free forward
// equal the old loop's bit for bit, NaN, ±Inf, ±0 and denormals included.
func TestReLUEqualsBranchingLoop(t *testing.T) {
	rng := mat.NewRNG(4)
	x := mat.RandN(rng, 37, 29, 1)
	copy(x.Data(), []float64{math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.Float64frombits(0x7FF0000000000001)})
	r := NewReLU()
	out := r.Forward(x, true)
	wantOut, wantMask := make([]float64, len(x.Data())), make([]float64, len(x.Data()))
	oldReLU(x.Data(), wantOut, wantMask)
	sameBits(t, "out", mat.NewDenseData(37, 29, wantOut), out)
	sameBits(t, "mask", mat.NewDenseData(37, 29, wantMask), r.mask)
}
