package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// Metamorphic properties of the exact SNGD preconditioner — relations that
// must hold for ANY input, derived from the algebra of (F+αI)⁻¹.

// Linearity: P(g1 + c·g2) = P(g1) + c·P(g2) for a fixed Fisher.
func TestPreconditionLinearityProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed)*211 + 13)
		m, d := 4+rng.Intn(8), 2+rng.Intn(4)
		a := mat.RandN(rng, m, d, 1)
		g := mat.RandN(rng, m, d, 1)
		n := d * d
		g1 := make([]float64, n)
		g2 := make([]float64, n)
		for i := 0; i < n; i++ {
			g1[i] = rng.Norm()
			g2[i] = rng.Norm()
		}
		c := 1 + rng.Float64()
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = g1[i] + c*g2[i]
		}
		p1, e1 := PreconditionExact(a, g, g1, 0.3)
		p2, e2 := PreconditionExact(a, g, g2, 0.3)
		pc, e3 := PreconditionExact(a, g, comb, 0.3)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		for i := range pc {
			want := p1[i] + c*p2[i]
			if math.Abs(pc[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Damping limit: as α → ∞, (F+αI)⁻¹g → g/α, i.e. α·P(g) → g.
func TestPreconditionDampingLimitProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed)*223 + 7)
		m, d := 4+rng.Intn(8), 2+rng.Intn(4)
		a := mat.RandN(rng, m, d, 1)
		g := mat.RandN(rng, m, d, 1)
		n := d * d
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = rng.Norm()
		}
		const alpha = 1e8
		p, err := PreconditionExact(a, g, grad, alpha)
		if err != nil {
			return false
		}
		for i := range p {
			if math.Abs(p[i]*alpha-grad[i]) > 1e-4*(1+math.Abs(grad[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Sample-permutation invariance: shuffling the batch rows of (A, G)
// together leaves the preconditioner unchanged — the Fisher is a sum over
// samples.
func TestPreconditionPermutationInvarianceProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed)*227 + 29)
		m, d := 4+rng.Intn(8), 2+rng.Intn(4)
		a := mat.RandN(rng, m, d, 1)
		g := mat.RandN(rng, m, d, 1)
		n := d * d
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = rng.Norm()
		}
		perm := rng.Perm(m)
		ap := a.SelectRows(perm)
		gp := g.SelectRows(perm)
		p1, e1 := PreconditionExact(a, g, grad, 0.4)
		p2, e2 := PreconditionExact(ap, gp, grad, 0.4)
		if e1 != nil || e2 != nil {
			return false
		}
		for i := range p1 {
			if math.Abs(p1[i]-p2[i]) > 1e-8*(1+math.Abs(p1[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Zero-gradient fixed point: P(0) = 0 for both production reduction modes
// and for Nyström.
func TestPreconditionZeroFixedPoint(t *testing.T) {
	rng := mat.NewRNG(300)
	for _, mode := range []Mode{ModeKID, ModeKIS} {
		net := capturedNet(300, 10, 3, 3)
		net.KernelLayers()[0].Weight().Grad.Zero()
		for _, v := range hyloGrad(net, 0.2, 0.4, mode, rng) {
			if v != 0 {
				t.Fatalf("%v: P(0) != 0", mode)
			}
		}
	}
	a := mat.RandN(rng, 10, 4, 1)
	g := mat.RandN(rng, 10, 3, 1)
	out, err := PreconditionNystrom(a, g, make([]float64, 12), 0.2, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("Nystrom: P(0) != 0")
		}
	}
}

// Scaling covariance: scaling BOTH factor matrices by c scales the kernel
// by c⁴; with damping also scaled appropriately the preconditioner of the
// mean Fisher is invariant to duplicating the batch (A;A), (G;G) — the
// mean normalization must absorb sample duplication.
func TestPreconditionDuplicationInvariance(t *testing.T) {
	rng := mat.NewRNG(301)
	m, d := 6, 3
	a := mat.RandN(rng, m, d, 1)
	g := mat.RandN(rng, m, d, 1)
	grad := make([]float64, d*d)
	for i := range grad {
		grad[i] = rng.Norm()
	}
	a2 := mat.VStack(a, a)
	g2 := mat.VStack(g, g)
	p1, e1 := PreconditionExact(a, g, grad, 0.3)
	p2, e2 := PreconditionExact(a2, g2, grad, 0.3)
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	for i := range p1 {
		if math.Abs(p1[i]-p2[i]) > 1e-8*(1+math.Abs(p1[i])) {
			t.Fatalf("duplicated batch changed the mean-Fisher preconditioner: %g vs %g",
				p1[i], p2[i])
		}
	}
}
