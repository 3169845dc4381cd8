package nn

import (
	"math"
	"testing"

	"repro/internal/mat"
)

func TestNetworkShapes(t *testing.T) {
	rng := mat.NewRNG(1)
	net := NewNetwork(Shape{C: 3, H: 32, W: 32}, rng,
		NewConv2d(16, 3, 1, 1), NewReLU(), NewMaxPool2d(2),
		NewConv2d(32, 3, 2, 1), NewReLU(), NewGlobalAvgPool(),
		NewLinear(10))
	if got := net.OutShape(); got != Vec(10) {
		t.Fatalf("OutShape = %v; want 10x1x1", got)
	}
	x := mat.RandN(rng, 4, 3*32*32, 0.1)
	y := net.Forward(x, true)
	if r, c := y.Dims(); r != 4 || c != 10 {
		t.Fatalf("output %dx%d; want 4x10", r, c)
	}
}

func TestKernelLayersEnumeration(t *testing.T) {
	rng := mat.NewRNG(2)
	net := NewNetwork(Shape{C: 2, H: 8, W: 8}, rng,
		NewConv2d(4, 3, 1, 1),
		NewResidual(NewConv2d(8, 3, 2, 1), NewReLU(), NewConv2d(8, 3, 1, 1)),
		NewGlobalAvgPool(), NewLinear(3))
	kls := net.KernelLayers()
	// conv + (2 body convs + 1 projection) + linear = 5.
	if len(kls) != 5 {
		for _, k := range kls {
			t.Logf("kernel layer: %s", k.Name())
		}
		t.Fatalf("KernelLayers count = %d; want 5", len(kls))
	}
}

func TestCaptureDimensions(t *testing.T) {
	rng := mat.NewRNG(3)
	net := NewNetwork(Shape{C: 2, H: 6, W: 6}, rng,
		NewConv2d(4, 3, 1, 1), NewReLU(), NewFlatten(), NewLinear(5))
	net.SetCapture(true)
	m := 7
	x := mat.RandN(rng, m, 72, 1)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.Forward(out, Target{Labels: []int{0, 1, 2, 3, 4, 0, 1}})
	net.Backward(g)
	for _, kl := range net.KernelLayers() {
		a, gg := kl.Capture()
		if a == nil || gg == nil {
			t.Fatalf("%s: capture missing", kl.Name())
		}
		dIn, dOut := kl.Dims()
		if a.Rows() != m || a.Cols() != dIn {
			t.Fatalf("%s: A dims %dx%d; want %dx%d", kl.Name(), a.Rows(), a.Cols(), m, dIn)
		}
		if gg.Rows() != m || gg.Cols() != dOut {
			t.Fatalf("%s: G dims %dx%d; want %dx%d", kl.Name(), gg.Rows(), gg.Cols(), m, dOut)
		}
	}
}

// TestCaptureGradientIdentity verifies the central structural fact the whole
// SNGD/KFAC stack relies on: for a LINEAR layer the weight gradient equals
// AᵀG/m with the captured per-sample factors (sum convention G = m·signal).
func TestCaptureGradientIdentity(t *testing.T) {
	rng := mat.NewRNG(4)
	net := NewNetwork(Vec(6), rng, NewLinear(8), NewTanh(), NewLinear(3))
	net.SetCapture(true)
	m := 5
	x := mat.RandN(rng, m, 6, 1)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.Forward(out, Target{Labels: []int{0, 1, 2, 0, 1}})
	net.ZeroGrad()
	net.Backward(g)
	for _, kl := range net.KernelLayers() {
		a, gg := kl.Capture()
		rebuilt := mat.MulTA(a, gg).Scale(1 / float64(m))
		if d := mat.MaxAbsDiff(rebuilt, kl.Weight().Grad); d > 1e-10 {
			t.Fatalf("%s: AᵀG/m differs from stored grad by %g", kl.Name(), d)
		}
	}
}

// For conv layers the spatial-sum capture is an approximation, but the
// per-sample Jacobian identity must hold exactly when OH=OW=1 (kernel
// covers the whole input), where the sum is over a single position.
func TestConvCaptureExactWhenSinglePosition(t *testing.T) {
	rng := mat.NewRNG(5)
	net := NewNetwork(Shape{C: 2, H: 3, W: 3}, rng,
		NewConv2d(4, 3, 1, 0), // out 1×1
		NewFlatten(), NewLinear(2))
	net.SetCapture(true)
	m := 4
	x := mat.RandN(rng, m, 18, 1)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.Forward(out, Target{Labels: []int{0, 1, 1, 0}})
	net.ZeroGrad()
	net.Backward(g)
	conv := net.KernelLayers()[0]
	a, gg := conv.Capture()
	rebuilt := mat.MulTA(a, gg).Scale(1 / float64(m))
	if d := mat.MaxAbsDiff(rebuilt, conv.Weight().Grad); d > 1e-10 {
		t.Fatalf("conv capture: AᵀG/m differs from grad by %g", d)
	}
}

func TestZeroGradAndAccumulation(t *testing.T) {
	rng := mat.NewRNG(6)
	net := NewNetwork(Vec(4), rng, NewLinear(3))
	x := mat.RandN(rng, 2, 4, 1)
	loss := SoftmaxCrossEntropy{}
	run := func() {
		out := net.Forward(x, true)
		_, g := loss.Forward(out, Target{Labels: []int{0, 1}})
		net.Backward(g)
	}
	run()
	g1 := net.Params()[0].Grad.Clone()
	run() // accumulates
	g2 := net.Params()[0].Grad.Clone()
	if d := mat.MaxAbsDiff(g2, g1.Clone().Scale(2)); d > 1e-12 {
		t.Fatalf("gradient should accumulate: %g", d)
	}
	net.ZeroGrad()
	if net.Params()[0].Grad.FrobNorm() != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	logits := mat.NewDenseData(1, 2, []float64{0, 0})
	loss, grad := SoftmaxCrossEntropy{}.Forward(logits, Target{Labels: []int{0}})
	if math.Abs(loss-math.Log(2)) > 1e-12 {
		t.Fatalf("loss = %g; want ln2", loss)
	}
	if math.Abs(grad.At(0, 0)+0.5) > 1e-12 || math.Abs(grad.At(0, 1)-0.5) > 1e-12 {
		t.Fatalf("grad = %v", grad)
	}
}

func TestSoftmaxStability(t *testing.T) {
	logits := mat.NewDenseData(2, 2, []float64{1000, 0, -1000, 0})
	loss, grad := SoftmaxCrossEntropy{}.Forward(logits, Target{Labels: []int{0, 1}})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %g", loss)
	}
	if math.IsNaN(grad.At(0, 0)) {
		t.Fatal("unstable grad")
	}
}

func TestAccuracy(t *testing.T) {
	logits := mat.NewDenseData(3, 2, []float64{2, 1, 0, 5, 3, 4})
	if got := Accuracy(logits, []int{0, 1, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %g; want 2/3", got)
	}
}

func TestDiceScorePerfect(t *testing.T) {
	masks := mat.NewDenseData(1, 4, []float64{1, 0, 1, 0})
	logits := mat.NewDenseData(1, 4, []float64{10, -10, 10, -10})
	if got := DiceScore(logits, masks, 0.5); got < 0.999 {
		t.Fatalf("perfect DiceScore = %g; want ≈1", got)
	}
	bad := mat.NewDenseData(1, 4, []float64{-10, 10, -10, 10})
	if got := DiceScore(bad, masks, 0.5); got > 0.01 {
		t.Fatalf("disjoint DiceScore = %g; want ≈0", got)
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := mat.NewRNG(7)
	bn := NewBatchNorm2d()
	bn.Build(Shape{C: 2, H: 4, W: 4}, rng)
	x := mat.RandN(rng, 8, 32, 3)
	x.AddScaled(mat.NewDenseData(8, 32, onesSlice(8*32)), 5) // mean 5
	y := bn.Forward(x, true)
	// Per-channel mean ≈ 0, var ≈ 1 after normalization (γ=1, β=0).
	for c := 0; c < 2; c++ {
		var mean float64
		for i := 0; i < 8; i++ {
			row := y.Row(i)[c*16 : (c+1)*16]
			for _, v := range row {
				mean += v
			}
		}
		mean /= 8 * 16
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("channel %d mean %g after BN", c, mean)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := mat.NewRNG(8)
	bn := NewBatchNorm2d()
	bn.Build(Shape{C: 1, H: 2, W: 2}, rng)
	x := mat.RandN(rng, 16, 4, 2)
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	yTrain := bn.Forward(x, true)
	yEval := bn.Forward(x, false)
	// After many updates the running stats approach batch stats, so the two
	// outputs should be close but need not be identical.
	if d := mat.MaxAbsDiff(yTrain, yEval); d > 0.2 {
		t.Fatalf("train/eval BN outputs differ by %g", d)
	}
}

func onesSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := mat.NewRNG(52)
	build := func(seed uint64) *Network {
		return NewNetwork(Shape{C: 1, H: 6, W: 6}, mat.NewRNG(seed),
			NewConv2d(3, 3, 1, 1), NewReLU(), NewFlatten(), NewLinear(4))
	}
	src := build(1)
	dst := build(2) // different init
	x := mat.RandN(rng, 2, 36, 1)
	before := src.Forward(x, false)
	if mat.Equal(dst.Forward(x, false), before, 1e-12) {
		t.Fatal("differently seeded nets should differ")
	}
	if err := dst.LoadState(src.AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(dst.Forward(x, false), before, 0) {
		t.Fatal("restored network output differs")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	a := NewNetwork(Vec(4), mat.NewRNG(1), NewLinear(3))
	b := NewNetwork(Vec(4), mat.NewRNG(1), NewLinear(5))
	if err := b.LoadState(a.AppendState(nil)); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// With spatially-expanded capture, AᵀG/m reproduces the conv weight
// gradient EXACTLY for any spatial size — the sum approximation of
// Sec. IV becomes exact per-position bookkeeping.
func TestConvExpandSpatialExactGradient(t *testing.T) {
	rng := mat.NewRNG(60)
	conv := NewConv2d(3, 3, 1, 1)
	conv.ExpandSpatial = true
	net := NewNetwork(Shape{C: 2, H: 5, W: 5}, rng, conv, NewFlatten(), NewLinear(2))
	net.SetCapture(true)
	m := 4
	x := mat.RandN(rng, m, 50, 1)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.Forward(out, Target{Labels: []int{0, 1, 0, 1}})
	net.ZeroGrad()
	net.Backward(g)
	a, gg := conv.Capture()
	tt := 5 * 5
	if a.Rows() != m*tt {
		t.Fatalf("expanded A rows = %d; want %d", a.Rows(), m*tt)
	}
	rebuilt := mat.MulTA(a, gg).Scale(1 / float64(m))
	if d := mat.MaxAbsDiff(rebuilt, conv.Weight().Grad); d > 1e-9 {
		t.Fatalf("expanded capture: AᵀG/m differs from grad by %g", d)
	}
}

// The spatial-sum capture (default) is an approximation; verify it differs
// from the exact expanded gradient on a multi-position conv, confirming
// the two modes are genuinely different code paths.
func TestConvSumCaptureIsApproximation(t *testing.T) {
	rng := mat.NewRNG(61)
	conv := NewConv2d(2, 3, 1, 1)
	net := NewNetwork(Shape{C: 1, H: 4, W: 4}, rng, conv, NewFlatten(), NewLinear(2))
	net.SetCapture(true)
	x := mat.RandN(rng, 3, 16, 1)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy{}.Forward(out, Target{Labels: []int{0, 1, 0}})
	net.ZeroGrad()
	net.Backward(g)
	a, gg := conv.Capture()
	rebuilt := mat.MulTA(a, gg).Scale(1.0 / 3)
	if d := mat.MaxAbsDiff(rebuilt, conv.Weight().Grad); d < 1e-12 {
		t.Fatal("spatial-sum capture unexpectedly exact on 16-position conv")
	}
}
