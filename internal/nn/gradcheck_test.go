package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// numGradParam estimates d(loss)/d(param[i,j]) by central differences.
func numGradParam(net *Network, loss Loss, x *mat.Dense, tgt Target, p *Param, i, j int) float64 {
	const h = 1e-5
	orig := p.W.At(i, j)
	p.W.Set(i, j, orig+h)
	lp, _ := loss.Forward(net.Forward(x, true), tgt)
	p.W.Set(i, j, orig-h)
	lm, _ := loss.Forward(net.Forward(x, true), tgt)
	p.W.Set(i, j, orig)
	return (lp - lm) / (2 * h)
}

// checkParamGrads compares analytic and numeric gradients on a sample of
// entries for every parameter of the network.
func checkParamGrads(t *testing.T, net *Network, loss Loss, x *mat.Dense, tgt Target, tol float64) {
	t.Helper()
	net.ZeroGrad()
	out := net.Forward(x, true)
	_, g := loss.Forward(out, tgt)
	net.Backward(g)
	rng := mat.NewRNG(999)
	for _, p := range net.Params() {
		r, c := p.W.Dims()
		for k := 0; k < 6; k++ {
			i, j := rng.Intn(r), rng.Intn(c)
			ana := p.Grad.At(i, j)
			num := numGradParam(net, loss, x, tgt, p, i, j)
			scale := math.Max(1, math.Max(math.Abs(ana), math.Abs(num)))
			if math.Abs(ana-num)/scale > tol {
				t.Fatalf("%s[%d,%d]: analytic %g vs numeric %g", p.Name, i, j, ana, num)
			}
		}
	}
}

func TestGradCheckLinearMLP(t *testing.T) {
	rng := mat.NewRNG(1)
	net := NewNetwork(Vec(7), rng,
		NewLinear(9), NewTanh(), NewLinear(4))
	x := mat.RandN(rng, 5, 7, 1)
	tgt := Target{Labels: []int{0, 1, 2, 3, 1}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-5)
}

func TestGradCheckReLUMLP(t *testing.T) {
	rng := mat.NewRNG(2)
	net := NewNetwork(Vec(6), rng,
		NewLinear(11), NewReLU(), NewLinear(3))
	x := mat.RandN(rng, 4, 6, 1)
	tgt := Target{Labels: []int{2, 0, 1, 2}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestGradCheckConv(t *testing.T) {
	rng := mat.NewRNG(3)
	net := NewNetwork(Shape{C: 2, H: 6, W: 6}, rng,
		NewConv2d(3, 3, 1, 1), NewTanh(),
		NewConv2d(4, 3, 2, 1), NewTanh(),
		NewFlatten(), NewLinear(3))
	x := mat.RandN(rng, 3, 2*6*6, 1)
	tgt := Target{Labels: []int{0, 2, 1}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestGradCheckPoolingStack(t *testing.T) {
	rng := mat.NewRNG(4)
	net := NewNetwork(Shape{C: 1, H: 8, W: 8}, rng,
		NewConv2d(2, 3, 1, 1), NewTanh(),
		NewMaxPool2d(2),
		NewConv2d(3, 3, 1, 1), NewTanh(),
		NewAvgPool2d(2),
		NewFlatten(), NewLinear(2))
	x := mat.RandN(rng, 2, 64, 1)
	tgt := Target{Labels: []int{1, 0}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestGradCheckResidual(t *testing.T) {
	rng := mat.NewRNG(5)
	net := NewNetwork(Shape{C: 2, H: 4, W: 4}, rng,
		NewResidual(NewConv2d(2, 3, 1, 1), NewTanh(), NewConv2d(2, 3, 1, 1)),
		NewTanh(),
		NewResidual(NewConv2d(4, 3, 2, 1), NewTanh(), NewConv2d(4, 3, 1, 1)), // projection path
		NewGlobalAvgPool(), NewLinear(3))
	x := mat.RandN(rng, 2, 32, 1)
	tgt := Target{Labels: []int{0, 2}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestGradCheckBatchNorm(t *testing.T) {
	rng := mat.NewRNG(6)
	net := NewNetwork(Shape{C: 2, H: 4, W: 4}, rng,
		NewConv2d(3, 3, 1, 1), NewBatchNorm2d(), NewTanh(),
		NewGlobalAvgPool(), NewLinear(2))
	x := mat.RandN(rng, 4, 32, 1)
	tgt := Target{Labels: []int{0, 1, 1, 0}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestGradCheckMSE(t *testing.T) {
	rng := mat.NewRNG(7)
	net := NewNetwork(Vec(5), rng, NewLinear(6), NewTanh(), NewLinear(4))
	x := mat.RandN(rng, 3, 5, 1)
	tgt := Target{Dense: mat.RandN(rng, 3, 4, 1)}
	checkParamGrads(t, net, MSE{}, x, tgt, 1e-5)
}

func TestGradCheckBCEDice(t *testing.T) {
	rng := mat.NewRNG(8)
	net := NewNetwork(Shape{C: 1, H: 4, W: 4}, rng,
		NewConv2d(2, 3, 1, 1), NewTanh(), NewConv2d(1, 3, 1, 1))
	x := mat.RandN(rng, 3, 16, 1)
	mask := mat.NewDense(3, 16)
	for i := 0; i < 3; i++ {
		for j := 0; j < 16; j++ {
			if rng.Float64() > 0.5 {
				mask.Set(i, j, 1)
			}
		}
	}
	tgt := Target{Dense: mask}
	checkParamGrads(t, net, BCEDice{DiceWeight: 0.5}, x, tgt, 1e-4)
}

func TestGradCheckUpsample(t *testing.T) {
	rng := mat.NewRNG(9)
	net := NewNetwork(Shape{C: 2, H: 3, W: 3}, rng,
		NewConv2d(2, 3, 1, 1), NewTanh(), NewUpsample2x(),
		NewConv2d(1, 3, 1, 1))
	x := mat.RandN(rng, 2, 18, 1)
	tgt := Target{Dense: mat.RandN(rng, 2, 36, 1)}
	checkParamGrads(t, net, MSE{}, x, tgt, 1e-4)
}

// Input-gradient check: d(loss)/dx must match finite differences; this
// exercises every Backward return path, not just weight grads.
func TestGradCheckInputGradient(t *testing.T) {
	rng := mat.NewRNG(10)
	net := NewNetwork(Shape{C: 1, H: 6, W: 6}, rng,
		NewConv2d(2, 3, 1, 1), NewReLU(), NewMaxPool2d(2),
		NewFlatten(), NewLinear(3))
	loss := SoftmaxCrossEntropy{}
	x := mat.RandN(rng, 2, 36, 1)
	tgt := Target{Labels: []int{1, 2}}
	out := net.Forward(x, true)
	_, g := loss.Forward(out, tgt)
	gin := net.Backward(g)
	const h = 1e-5
	for k := 0; k < 10; k++ {
		i, j := rng.Intn(2), rng.Intn(36)
		orig := x.At(i, j)
		x.Set(i, j, orig+h)
		lp, _ := loss.Forward(net.Forward(x, true), tgt)
		x.Set(i, j, orig-h)
		lm, _ := loss.Forward(net.Forward(x, true), tgt)
		x.Set(i, j, orig)
		num := (lp - lm) / (2 * h)
		ana := gin.At(i, j)
		if math.Abs(ana-num) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("input grad (%d,%d): analytic %g vs numeric %g", i, j, ana, num)
		}
	}
}

func TestGradCheckSelfAttention(t *testing.T) {
	rng := mat.NewRNG(11)
	// Sequence of 4 tokens, model dim 5.
	net := NewNetwork(Shape{C: 4, H: 5, W: 1}, rng,
		NewSelfAttention(), NewTokenMLP(7),
		// Pool by flattening + linear head.
		NewFlatten(), NewLinear(3))
	x := mat.RandN(rng, 3, 20, 1)
	tgt := Target{Labels: []int{0, 2, 1}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestGradCheckAttentionResidualStack(t *testing.T) {
	rng := mat.NewRNG(12)
	net := NewNetwork(Shape{C: 3, H: 4, W: 1}, rng,
		NewResidual(NewSelfAttention()),
		NewResidual(NewTokenMLP(6)),
		NewFlatten(), NewLinear(2))
	x := mat.RandN(rng, 2, 12, 1)
	tgt := Target{Labels: []int{1, 0}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestAttentionKernelLayers(t *testing.T) {
	rng := mat.NewRNG(13)
	net := NewNetwork(Shape{C: 3, H: 4, W: 1}, rng,
		NewSelfAttention(), NewTokenMLP(6), NewFlatten(), NewLinear(2))
	// Wq, Wk, Wv, Wo + up + down + head = 7 kernel layers.
	if got := len(net.KernelLayers()); got != 7 {
		for _, k := range net.KernelLayers() {
			t.Logf("kernel layer: %s", k.Name())
		}
		t.Fatalf("kernel layers = %d; want 7", got)
	}
}

func TestAttentionCaptureIsPerToken(t *testing.T) {
	rng := mat.NewRNG(14)
	net := NewNetwork(Shape{C: 3, H: 4, W: 1}, rng,
		NewSelfAttention(), NewFlatten(), NewLinear(2))
	net.SetCapture(true)
	m := 5
	x := mat.RandN(rng, m, 12, 1)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.Forward(out, Target{Labels: []int{0, 1, 0, 1, 0}})
	net.ZeroGrad()
	net.Backward(g)
	// The projection captures see one row per (sample, token): 5·3 = 15.
	for _, kl := range net.KernelLayers()[:4] {
		a, _ := kl.Capture()
		if a.Rows() != m*3 {
			t.Fatalf("%s: capture rows = %d; want %d", kl.Name(), a.Rows(), m*3)
		}
	}
}

func TestGradCheckLayerNorm(t *testing.T) {
	rng := mat.NewRNG(15)
	net := NewNetwork(Shape{C: 3, H: 5, W: 1}, rng,
		NewLayerNorm(), NewSelfAttention(), NewLayerNorm(),
		NewFlatten(), NewLinear(2))
	x := mat.RandN(rng, 2, 15, 1)
	tgt := Target{Labels: []int{0, 1}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestLayerNormNormalizesTokens(t *testing.T) {
	rng := mat.NewRNG(16)
	ln := NewLayerNorm()
	ln.Build(Shape{C: 2, H: 8, W: 1}, rng)
	x := mat.RandN(rng, 3, 16, 4)
	y := ln.Forward(x, true)
	// Each token (8 values) must have mean ≈ 0 and unit variance.
	yt := mat.NewDenseData(6, 8, y.Data())
	for i := 0; i < 6; i++ {
		row := yt.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= 8
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("token %d mean = %g", i, mean)
		}
		var variance float64
		for _, v := range row {
			variance += (v - mean) * (v - mean)
		}
		variance /= 8
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("token %d variance = %g", i, variance)
		}
	}
}

func TestGradCheckPosEmbed(t *testing.T) {
	rng := mat.NewRNG(20)
	net := NewNetwork(Shape{C: 3, H: 4, W: 1}, rng,
		NewPosEmbed(), NewSelfAttention(), NewFlatten(), NewLinear(2))
	x := mat.RandN(rng, 3, 12, 1)
	tgt := Target{Labels: []int{0, 1, 0}}
	checkParamGrads(t, net, SoftmaxCrossEntropy{}, x, tgt, 1e-4)
}

func TestPosEmbedBreaksPermutationSymmetry(t *testing.T) {
	rng := mat.NewRNG(21)
	net := NewNetwork(Shape{C: 2, H: 3, W: 1}, rng, NewPosEmbed())
	x := mat.RandN(rng, 1, 6, 1)
	y1 := net.Forward(x, true)
	// Swap the two tokens of the input.
	swapped := x.Clone()
	copy(swapped.Row(0)[:3], x.Row(0)[3:])
	copy(swapped.Row(0)[3:], x.Row(0)[:3])
	y2 := net.Forward(swapped, true)
	// y2 must NOT be the token-swap of y1 (embeddings differ per slot).
	sw := y2.Clone()
	copy(sw.Row(0)[:3], y2.Row(0)[3:])
	copy(sw.Row(0)[3:], y2.Row(0)[:3])
	if mat.Equal(y1, sw, 1e-12) {
		t.Fatal("positional embedding did not break permutation symmetry")
	}
}
