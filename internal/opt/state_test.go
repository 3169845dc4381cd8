package opt

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

func stateTestParams(seed uint64) []*nn.Param {
	rng := mat.NewRNG(seed)
	w := mat.NewDense(3, 4)
	d := w.Data()
	for i := range d {
		d[i] = rng.Norm()
	}
	return []*nn.Param{nn.NewParam("w", w)}
}

func fillGrads(params []*nn.Param, rng *mat.RNG) {
	for _, p := range params {
		g := p.Grad.Data()
		for i := range g {
			g[i] = rng.Norm()
		}
	}
}

// A restored optimizer must continue bit-identically to one that never
// stopped: run A for 5 steps, snapshot, run both the original and a fresh
// optimizer restored from the snapshot for 5 more steps on identical
// gradients, and compare the weights.
func TestSGDStateRoundTripResumesExactly(t *testing.T) {
	pa := stateTestParams(1)
	a := NewSGD(pa, 0.1, 0.9, 1e-4)
	rng := mat.NewRNG(2)
	for s := 0; s < 5; s++ {
		fillGrads(pa, rng)
		a.Step()
	}
	snap := a.AppendState(nil)

	pb := stateTestParams(1)
	copy(pb[0].W.Data(), pa[0].W.Data())
	b := NewSGD(pb, 0.05, 0.9, 1e-4) // wrong LR on purpose; restore must fix it
	if err := b.LoadState(snap); err != nil {
		t.Fatal(err)
	}
	if b.LR() != 0.1 {
		t.Fatalf("restored LR = %v; want 0.1", b.LR())
	}

	rngA, rngB := mat.NewRNG(3), mat.NewRNG(3)
	for s := 0; s < 5; s++ {
		fillGrads(pa, rngA)
		a.Step()
		fillGrads(pb, rngB)
		b.Step()
	}
	if !mat.Equal(pa[0].W, pb[0].W, 0) {
		t.Fatal("restored SGD diverged from uninterrupted run")
	}
}

func TestAdamStateRoundTripResumesExactly(t *testing.T) {
	pa := stateTestParams(7)
	a := NewAdam(pa, 0.01, 1e-4)
	rng := mat.NewRNG(8)
	for s := 0; s < 5; s++ {
		fillGrads(pa, rng)
		a.Step()
	}
	snap := a.AppendState(nil)

	pb := stateTestParams(7)
	copy(pb[0].W.Data(), pa[0].W.Data())
	b := NewAdam(pb, 0.01, 1e-4)
	if err := b.LoadState(snap); err != nil {
		t.Fatal(err)
	}

	// Bias correction depends on the step count; divergence here means the
	// counter was not restored.
	rngA, rngB := mat.NewRNG(9), mat.NewRNG(9)
	for s := 0; s < 5; s++ {
		fillGrads(pa, rngA)
		a.Step()
		fillGrads(pb, rngB)
		b.Step()
	}
	if !mat.Equal(pa[0].W, pb[0].W, 0) {
		t.Fatal("restored Adam diverged from uninterrupted run")
	}
}

func TestSGDLoadStateRejectsShapeMismatch(t *testing.T) {
	a := NewSGD(stateTestParams(1), 0.1, 0.9, 0)
	snap := a.AppendState(nil)
	big := mat.NewDense(5, 5)
	b := NewSGD([]*nn.Param{nn.NewParam("w", big)}, 0.1, 0.9, 0)
	if err := b.LoadState(snap); err == nil {
		t.Fatal("shape-mismatched snapshot loaded without error")
	}
}
