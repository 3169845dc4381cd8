package nn

import (
	"runtime"
	"testing"

	"repro/internal/mat"
)

// oldDepthwise is DepthwiseConv2d's Forward and Backward as they stood when
// every call allocated its output, its input gradient and its two patch
// buffers: the same loops over fresh storage.
func oldDepthwise(c *DepthwiseConv2d, x, grad *mat.Dense) (y, gin, wgrad *mat.Dense) {
	m, tt, kk, inHW := x.Rows(), c.out.H*c.out.W, c.K*c.K, c.in.H*c.in.W
	y, gin, wgrad = mat.NewDense(m, c.out.Numel()), mat.NewDense(m, c.in.Numel()), mat.NewDense(c.in.C, kk+1)
	cols, dcols := make([]float64, tt*kk), make([]float64, tt*kk)
	for i := 0; i < m; i++ {
		xr, yr, gr := x.Row(i), y.Row(i), grad.Row(i)
		for ch := 0; ch < c.in.C; ch++ {
			c.shape.Im2col(xr[ch*inHW:(ch+1)*inHW], cols)
			wr, wgr := c.w.W.Row(ch), wgrad.Row(ch)
			for p := 0; p < tt; p++ {
				yr[ch*tt+p] = mat.Dot(cols[p*kk:(p+1)*kk], wr[:kk]) + wr[kk]
			}
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
	return y, gin, wgrad
}

// TestDepthwiseReusesBuffers: with layer-owned buffers the outputs and W.Grad
// equal the allocating loops' bit for bit — on a second batch of another size
// through the same layer too, where a stale buffer would show — and a warmed
// Forward+Backward allocates only Forward's closure.
func TestDepthwiseReusesBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := mat.NewRNG(21)
	c := NewDepthwiseConv2d(3, 2, 1)
	c.Build(Shape{C: 5, H: 9, W: 7}, rng)
	for j := 0; j < c.in.C; j++ {
		c.w.W.Set(j, c.K*c.K, rng.Norm()) // a bias that is not zero
	}
	var x, grad *mat.Dense
	for _, m := range []int{6, 3, 6} {
		x, grad = mat.RandN(rng, m, c.in.Numel(), 1), mat.RandN(rng, m, c.out.Numel(), 1)
		grad.Data()[3] = 0 // the skipped position
		y, gin, wgrad := oldDepthwise(c, x, grad)
		c.w.Grad.Zero()
		sameBits(t, "y", y, c.Forward(x, true))
		sameBits(t, "gin", gin, c.Backward(grad))
		sameBits(t, "W.Grad", wgrad, c.w.Grad)
	}
	if raceEnabled {
		return // the race detector drops sync.Pool puts, so Forward's pooled patches reallocate
	}
	step := func() {
		c.Forward(x, true)
		c.Backward(grad)
	}
	if got := testing.AllocsPerRun(5, step); got != 1 {
		t.Errorf("%v allocs per warmed Forward+Backward, want 1", got)
	}
}
