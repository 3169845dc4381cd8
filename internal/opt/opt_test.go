package opt

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

func oneParam(vals []float64) []*nn.Param {
	p := nn.NewParam("w", mat.NewDenseData(1, len(vals), vals))
	return []*nn.Param{p}
}

func TestSGDPlainStep(t *testing.T) {
	ps := oneParam([]float64{1, 2})
	ps[0].Grad.Set(0, 0, 0.5)
	ps[0].Grad.Set(0, 1, -1)
	s := NewSGD(ps, 0.1, 0, 0)
	s.Step()
	if got := ps[0].W.At(0, 0); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("w0 = %g; want 0.95", got)
	}
	if got := ps[0].W.At(0, 1); math.Abs(got-2.1) > 1e-12 {
		t.Fatalf("w1 = %g; want 2.1", got)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	ps := oneParam([]float64{0})
	s := NewSGD(ps, 1, 0.9, 0)
	ps[0].Grad.Set(0, 0, 1)
	s.Step() // v=1, w=-1
	s.Step() // v=1.9, w=-2.9
	if got := ps[0].W.At(0, 0); math.Abs(got+2.9) > 1e-12 {
		t.Fatalf("w = %g; want -2.9", got)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	ps := oneParam([]float64{10})
	s := NewSGD(ps, 0.1, 0, 0.5)
	// grad = 0 but decay pulls towards zero: w -= lr*wd*w = 10 - 0.1*5 = 9.5.
	s.Step()
	if got := ps[0].W.At(0, 0); math.Abs(got-9.5) > 1e-12 {
		t.Fatalf("w = %g; want 9.5", got)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the first ADAM step is ≈ lr·sign(g).
	ps := oneParam([]float64{0, 0})
	a := NewAdam(ps, 0.01, 0)
	ps[0].Grad.Set(0, 0, 3)
	ps[0].Grad.Set(0, 1, -7)
	a.Step()
	if got := ps[0].W.At(0, 0); math.Abs(got+0.01) > 1e-6 {
		t.Fatalf("w0 = %g; want ≈-0.01", got)
	}
	if got := ps[0].W.At(0, 1); math.Abs(got-0.01) > 1e-6 {
		t.Fatalf("w1 = %g; want ≈+0.01", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)² — ADAM should reach the optimum.
	ps := oneParam([]float64{0})
	a := NewAdam(ps, 0.1, 0)
	for i := 0; i < 500; i++ {
		w := ps[0].W.At(0, 0)
		ps[0].Grad.Set(0, 0, 2*(w-3))
		a.Step()
	}
	if got := ps[0].W.At(0, 0); math.Abs(got-3) > 0.01 {
		t.Fatalf("ADAM converged to %g; want 3", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	ps := oneParam([]float64{10})
	s := NewSGD(ps, 0.1, 0.9, 0)
	for i := 0; i < 200; i++ {
		w := ps[0].W.At(0, 0)
		ps[0].Grad.Set(0, 0, 2*(w-3))
		s.Step()
	}
	if got := ps[0].W.At(0, 0); math.Abs(got-3) > 0.01 {
		t.Fatalf("SGD converged to %g; want 3", got)
	}
}

func TestStateBytes(t *testing.T) {
	ps := oneParam(make([]float64, 100))
	if got := NewSGD(ps, 0.1, 0.9, 0).StateBytes(); got != 800 {
		t.Fatalf("SGD StateBytes = %d; want 800", got)
	}
	if got := NewAdam(ps, 0.1, 0).StateBytes(); got != 1600 {
		t.Fatalf("Adam StateBytes = %d; want 1600", got)
	}
}

func TestLRSchedule(t *testing.T) {
	s := LRSchedule{Base: 1, DecayAt: []int{10, 20}, Gamma: 0.1}
	if s.At(0) != 1 || s.At(9) != 1 {
		t.Fatal("pre-decay LR wrong")
	}
	if math.Abs(s.At(10)-0.1) > 1e-15 || math.Abs(s.At(19)-0.1) > 1e-15 {
		t.Fatalf("after first decay: %g", s.At(10))
	}
	if math.Abs(s.At(25)-0.01) > 1e-15 {
		t.Fatalf("after second decay: %g", s.At(25))
	}
	if !s.DecaysAt(10) || !s.DecaysAt(20) || s.DecaysAt(11) || s.DecaysAt(0) {
		t.Fatal("DecaysAt wrong")
	}
}

func TestSetLR(t *testing.T) {
	ps := oneParam([]float64{0})
	s := NewSGD(ps, 0.5, 0, 0)
	if s.LR() != 0.5 {
		t.Fatal("LR getter")
	}
	s.SetLR(0.05)
	ps[0].Grad.Set(0, 0, 1)
	s.Step()
	if got := ps[0].W.At(0, 0); math.Abs(got+0.05) > 1e-12 {
		t.Fatalf("w = %g; want -0.05", got)
	}
}

func TestClipGradNorm(t *testing.T) {
	ps := []*nn.Param{
		nn.NewParam("a", mat.NewDense(1, 2)),
		nn.NewParam("b", mat.NewDense(1, 2)),
	}
	ps[0].Grad.Set(0, 0, 3)
	ps[1].Grad.Set(0, 0, 4) // global norm 5
	pre := ClipGradNorm(ps, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %g; want 5", pre)
	}
	var sq float64
	for _, p := range ps {
		n := p.Grad.FrobNorm()
		sq += n * n
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-12 {
		t.Fatalf("post-clip norm = %g; want 1", math.Sqrt(sq))
	}
	// Below threshold: untouched.
	before := ps[0].Grad.At(0, 0)
	ClipGradNorm(ps, 100)
	if ps[0].Grad.At(0, 0) != before {
		t.Fatal("clip below threshold modified gradients")
	}
	// Disabled: untouched.
	ClipGradNorm(ps, 0)
	if ps[0].Grad.At(0, 0) != before {
		t.Fatal("disabled clip modified gradients")
	}
}
