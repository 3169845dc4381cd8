package models

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

func TestThreeC1FForwardShapes(t *testing.T) {
	rng := mat.NewRNG(1)
	net := ThreeC1F(nn.Shape{C: 1, H: 28, W: 28}, 8, 10, rng)
	x := mat.RandN(rng, 3, 28*28, 0.5)
	y := net.Forward(x, true)
	if r, c := y.Dims(); r != 3 || c != 10 {
		t.Fatalf("output %dx%d; want 3x10", r, c)
	}
	// 3 convs + 1 FC = 4 kernel layers.
	if got := len(net.KernelLayers()); got != 4 {
		t.Fatalf("kernel layers = %d; want 4", got)
	}
}

func TestResNetCIFARStructure(t *testing.T) {
	rng := mat.NewRNG(2)
	net := ResNetCIFAR(nn.Shape{C: 3, H: 16, W: 16}, 2, 4, 10, rng)
	x := mat.RandN(rng, 2, 3*16*16, 0.5)
	y := net.Forward(x, true)
	if r, c := y.Dims(); r != 2 || c != 10 {
		t.Fatalf("output %dx%d; want 2x10", r, c)
	}
	// Spatial reduction 16 → 8 → 4 through the strided stages: check by
	// backward pass consistency instead of internals.
	_, g := nn.SoftmaxCrossEntropy{}.Forward(y, nn.Target{Labels: []int{1, 2}})
	gin := net.Backward(g)
	if gin.Cols() != 3*16*16 {
		t.Fatalf("input grad cols = %d; want %d", gin.Cols(), 3*16*16)
	}
}

func TestResNetCIFARKernelLayerCount(t *testing.T) {
	rng := mat.NewRNG(3)
	// n=1: stem conv + 3 stages × 1 block × 2 convs + 2 projections
	// (stages 2 and 3 change width/stride) + final linear = 1+6+2+1 = 10.
	net := ResNetCIFAR(nn.Shape{C: 3, H: 16, W: 16}, 1, 4, 10, rng)
	if got := len(net.KernelLayers()); got != 10 {
		t.Fatalf("kernel layers = %d; want 10", got)
	}
}

func TestDenseNetLiteForward(t *testing.T) {
	rng := mat.NewRNG(4)
	net := DenseNetLite(nn.Shape{C: 3, H: 16, W: 16}, 4, 100, rng)
	x := mat.RandN(rng, 2, 3*16*16, 0.5)
	y := net.Forward(x, true)
	if r, c := y.Dims(); r != 2 || c != 100 {
		t.Fatalf("output %dx%d; want 2x100", r, c)
	}
}

func TestMiniUNetShapes(t *testing.T) {
	rng := mat.NewRNG(5)
	in := nn.Shape{C: 2, H: 16, W: 16}
	net := MiniUNet(in, 4, rng)
	if got := net.OutShape(); got.Numel() != 16*16 {
		t.Fatalf("U-Net output %v; want 1x16x16", got)
	}
	x := mat.RandN(rng, 2, in.Numel(), 0.5)
	y := net.Forward(x, true)
	if y.Cols() != 256 {
		t.Fatalf("per-pixel logits = %d; want 256", y.Cols())
	}
}

// The U-Net composite must propagate gradients correctly through the skip
// concatenation; verify with a numerical check on a few weights.
func TestMiniUNetGradCheck(t *testing.T) {
	rng := mat.NewRNG(6)
	in := nn.Shape{C: 1, H: 8, W: 8}
	net := MiniUNet(in, 2, rng)
	loss := nn.BCEDice{DiceWeight: 0.5}
	x := mat.RandN(rng, 2, 64, 0.5)
	mask := mat.NewDense(2, 64)
	for i := 0; i < 2; i++ {
		for j := 20; j < 40; j++ {
			mask.Set(i, j, 1)
		}
	}
	tgt := nn.Target{Dense: mask}

	net.ZeroGrad()
	out := net.Forward(x, true)
	_, g := loss.Forward(out, tgt)
	net.Backward(g)

	const h = 1e-5
	check := rng // reuse
	params := net.Params()
	for k := 0; k < 8; k++ {
		p := params[check.Intn(len(params))]
		i, j := check.Intn(p.W.Rows()), check.Intn(p.W.Cols())
		orig := p.W.At(i, j)
		p.W.Set(i, j, orig+h)
		lp, _ := loss.Forward(net.Forward(x, true), tgt)
		p.W.Set(i, j, orig-h)
		lm, _ := loss.Forward(net.Forward(x, true), tgt)
		p.W.Set(i, j, orig)
		num := (lp - lm) / (2 * h)
		ana := p.Grad.At(i, j)
		if math.Abs(ana-num) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s[%d,%d]: analytic %g vs numeric %g", p.Name, i, j, ana, num)
		}
	}
}

func TestUNetKernelLayersEnumerated(t *testing.T) {
	rng := mat.NewRNG(7)
	net := MiniUNet(nn.Shape{C: 1, H: 8, W: 8}, 2, rng)
	// 3 levels × (1 enc conv + 1 dec conv) + bottleneck(2) is counted inside
	// levels; plus the 1×1 head: total = 2*3 + 2... structure: top(enc1,dec1)
	// mid(enc1,dec1) bottleneck(enc1,dec1) + head = 7.
	if got := len(net.KernelLayers()); got != 7 {
		for _, k := range net.KernelLayers() {
			t.Logf("kernel layer: %s", k.Name())
		}
		t.Fatalf("kernel layers = %d; want 7", got)
	}
}

func TestResNet50DescInventory(t *testing.T) {
	d := ResNet50Desc()
	// 1 stem + Σ blocks×3 + 4 downsamples + 1 fc = 1 + (3+4+6+3)*3 + 4 + 1 = 54.
	if got := len(d.Layers); got != 54 {
		t.Fatalf("ResNet-50 layers = %d; want 54", got)
	}
	// ~25.5M params in conv+fc weights (no BN): sanity range.
	p := d.Params()
	if p < 20e6 || p > 30e6 {
		t.Fatalf("ResNet-50 params = %d; want ≈25M", p)
	}
	// Largest layer dimension is the 4608-wide conv (512·3·3) in stage 4.
	maxDim := 0
	for _, dim := range d.Dims() {
		if dim > maxDim {
			maxDim = dim
		}
	}
	if maxDim != 4608 {
		t.Fatalf("max layer dim = %d; want 4608", maxDim)
	}
}

func TestResNet32DescInventory(t *testing.T) {
	d := ResNet32Desc()
	// 1 stem + 3 stages × 5 blocks × 2 convs + 2 downsample + 1 fc = 34.
	if got := len(d.Layers); got != 34 {
		t.Fatalf("ResNet-32 layers = %d; want 34", got)
	}
	p := d.Params()
	if p < 0.4e6 || p > 0.6e6 {
		t.Fatalf("ResNet-32 params = %d; want ≈0.46M", p)
	}
}

func TestAllDescsNonEmpty(t *testing.T) {
	for _, d := range AllDescs() {
		if len(d.Layers) == 0 {
			t.Fatalf("%s: empty inventory", d.Name)
		}
		for _, l := range d.Layers {
			if l.DIn <= 0 || l.DOut <= 0 || l.SpatialOut <= 0 {
				t.Fatalf("%s/%s: bad dims %+v", d.Name, l.Name, l)
			}
		}
	}
}

func TestVGG16HasLargeFC(t *testing.T) {
	d := VGG16Desc()
	found := false
	for _, l := range d.Layers {
		if l.DIn == 25088 {
			found = true
		}
	}
	if !found {
		t.Fatal("VGG-16 inventory missing the 25088-dim fc1")
	}
}

func TestTransformerLiteForwardAndGradients(t *testing.T) {
	rng := mat.NewRNG(30)
	in := nn.Shape{C: 1, H: 8, W: 8}
	net := TransformerLite(in, 4, 6, 1, 3, rng) // 4 tokens of dim 16→6
	x := mat.RandN(rng, 2, 64, 0.5)
	y := net.Forward(x, true)
	if r, c := y.Dims(); r != 2 || c != 3 {
		t.Fatalf("output %dx%d; want 2x3", r, c)
	}
	_, g := nn.SoftmaxCrossEntropy{}.Forward(y, nn.Target{Labels: []int{0, 2}})
	net.ZeroGrad()
	net.Backward(g)
	// Numerical spot-check on a few params.
	loss := nn.SoftmaxCrossEntropy{}
	tgt := nn.Target{Labels: []int{0, 2}}
	const h = 1e-5
	params := net.Params()
	check := mat.NewRNG(31)
	for k := 0; k < 6; k++ {
		p := params[check.Intn(len(params))]
		i, j := check.Intn(p.W.Rows()), check.Intn(p.W.Cols())
		orig := p.W.At(i, j)
		p.W.Set(i, j, orig+h)
		lp, _ := loss.Forward(net.Forward(x, true), tgt)
		p.W.Set(i, j, orig-h)
		lm, _ := loss.Forward(net.Forward(x, true), tgt)
		p.W.Set(i, j, orig)
		num := (lp - lm) / (2 * h)
		ana := p.Grad.At(i, j)
		if math.Abs(ana-num) > 1e-4*math.Max(1, math.Abs(num)) {
			t.Fatalf("%s[%d,%d]: analytic %g vs numeric %g", p.Name, i, j, ana, num)
		}
	}
}

func TestTransformerLiteKernelLayerCount(t *testing.T) {
	rng := mat.NewRNG(32)
	net := TransformerLite(nn.Shape{C: 1, H: 8, W: 8}, 4, 6, 2, 3, rng)
	// embed + 2×(4 attention proj + 2 mlp) + head = 1 + 12 + 1 = 14.
	if got := len(net.KernelLayers()); got != 14 {
		t.Fatalf("kernel layers = %d; want 14", got)
	}
}
