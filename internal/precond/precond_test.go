package precond

import (
	"math"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/numerics"
)

// denseApply is the reference: (1/α)(g − UᵀMUg) with U = As ⊙ Gs formed
// explicitly, row i being vec(aᵢ gᵢᵀ).
func denseApply(as, gs, m *mat.Dense, grad []float64, alpha float64) []float64 {
	r, dIn, dOut := as.Rows(), as.Cols(), gs.Cols()
	u := mat.NewDense(r, dIn*dOut)
	for i := 0; i < r; i++ {
		for p := 0; p < dIn; p++ {
			for q := 0; q < dOut; q++ {
				u.Set(i, p*dOut+q, as.At(i, p)*gs.At(i, q))
			}
		}
	}
	corr := mat.MulVecT(u, mat.MulVec(m, mat.MulVec(u, grad)))
	out := make([]float64, len(grad))
	for j := range grad {
		out[j] = (grad[j] - corr[j]) / alpha
	}
	return out
}

func randKernel(rng *mat.RNG, r, dIn, dOut int) *Kernel {
	return &Kernel{As: mat.RandN(rng, r, dIn, 1), Gs: mat.RandN(rng, r, dOut, 1), M: mat.RandN(rng, r, r, 1)}
}

func TestKernelApplyMatchesDense(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {3, 4, 2}, {7, 2, 5}} {
		r, dIn, dOut := shape[0], shape[1], shape[2]
		rng := mat.NewRNG(uint64(11 + r))
		k := randKernel(rng, r, dIn, dOut)
		grad := mat.RandN(rng, 1, dIn*dOut, 1).Data()
		want := denseApply(k.As, k.Gs, k.M, grad, 0.3)

		k.Apply(grad, 0.3)
		for j := range want {
			if math.Abs(grad[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
				t.Fatalf("shape %v elem %d: got %g want %g", shape, j, grad[j], want[j])
			}
		}
	}
}

func TestKernelApplyWithoutMIsNoOp(t *testing.T) {
	var k Kernel
	grad := []float64{1, 2, 3}
	k.Apply(grad, 0.5)
	if grad[0] != 1 || grad[1] != 2 || grad[2] != 3 {
		t.Fatalf("Apply with no M changed the gradient: %v", grad)
	}
}

func TestKernelApplyAllocFree(t *testing.T) {
	rng := mat.NewRNG(5)
	k := randKernel(rng, 6, 4, 3)
	grad := mat.RandN(rng, 1, 12, 1).Data()
	k.Apply(grad, 0.3) // warm-up sizes the scratch
	if n := testing.AllocsPerRun(20, func() { k.Apply(grad, 0.3) }); n != 0 && !raceEnabled {
		t.Fatalf("Apply allocates %v per call after warm-up", n)
	}
}

func TestKernelStackCaptureRestore(t *testing.T) {
	rng := mat.NewRNG(9)
	a0, a1 := mat.RandN(rng, 2, 3, 1), mat.RandN(rng, 4, 3, 1)
	g0, g1 := mat.RandN(rng, 2, 5, 1), mat.RandN(rng, 4, 5, 1)
	var k Kernel
	k.Stack([]*mat.Dense{a0, a1}, []*mat.Dense{g0, g1})
	if d := mat.MaxAbsDiff(k.As, mat.VStack(a0, a1)); d != 0 {
		t.Fatalf("As differs from VStack by %g", d)
	}
	if d := mat.MaxAbsDiff(k.Gs, mat.VStack(g0, g1)); d != 0 {
		t.Fatalf("Gs differs from VStack by %g", d)
	}
	k.M = mat.RandN(rng, 6, 6, 1)
	state := mat.Fields{&k.As, &k.Gs, &k.M}
	if want := 3*8 + (6*3+6*5+6*6)*8; state.Len() != want {
		t.Fatalf("the kernel's state encodes in %d bytes; want %d", state.Len(), want)
	}
	var back Kernel
	if err := (mat.Fields{&back.As, &back.Gs, &back.M}).Load(state.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(back.As, k.As) != 0 || mat.MaxAbsDiff(back.Gs, k.Gs) != 0 || mat.MaxAbsDiff(back.M, k.M) != 0 {
		t.Fatal("a field list did not round-trip As, Gs, M")
	}
}

func TestInvertSPD(t *testing.T) {
	rng := mat.NewRNG(3)
	x := mat.RandN(rng, 8, 4, 1)
	k := mat.GramT(x) // 4×4 SPD
	numerics.Reset()
	inv := InvertSPD(nil, k, 0.1, "test.ok", numerics.RungIdentity, Zero)
	if d := mat.MaxAbsDiff(mat.Mul(k.Clone().AddDiag(0.1), inv), mat.Identity(4)); d > 1e-10 {
		t.Fatalf("(k+γI)·inv differs from I by %g", d)
	}
	dst := mat.NewDense(4, 4)
	if got := InvertSPD(dst, k, 0.1, "test.ok", numerics.RungIdentity, Zero); got != dst || mat.MaxAbsDiff(dst, inv) != 0 {
		t.Fatal("inverse into a destination is not dst holding the same inverse")
	}
	if n := numerics.Default().Snapshot().TotalFallbacks(); n != 0 {
		t.Fatalf("healthy inverse recorded %d fallbacks", n)
	}

	bad := mat.NewDense(3, 3)
	bad.Set(1, 1, math.NaN())
	for _, c := range []struct {
		site     string
		rung     numerics.Rung
		fallback func(*mat.Dense, float64) *mat.Dense
	}{
		{"test.zero", numerics.RungIdentity, Zero},
		{"test.diag", numerics.RungDiagonal, mat.DiagInvDamped},
	} {
		dst := mat.NewDense(3, 3)
		dst.Fill(math.NaN())
		for _, d := range []*mat.Dense{nil, dst} {
			numerics.Reset()
			got := InvertSPD(d, bad, 0.1, c.site, c.rung, c.fallback)
			if want := c.fallback(bad, 0.1); got.Rows() != 3 || got.Cols() != 3 || mat.MaxAbsDiff(got, want) != 0 {
				t.Fatalf("%s: result is not the caller's 3×3 fallback", c.site)
			}
			if d != nil && got != d {
				t.Fatalf("%s: fallback not written into the destination", c.site)
			}
			snap := numerics.Default().Snapshot()
			if snap.Fallbacks[c.site][c.rung] != 1 || snap.TotalFallbacks() != 1 {
				t.Fatalf("%s: fallbacks = %v; want rung %v once", c.site, snap.Fallbacks, c.rung)
			}
		}
	}
	numerics.Reset()
}

// The recorder sits on every stage of the hot path: with telemetry off and
// no Timeline it must not build its labels.
func TestRecordDisabledAllocFree(t *testing.T) {
	b := &Base{Comm: dist.Local(), optimizer: "hylo"}
	start := time.Now()
	if n := testing.AllocsPerRun(20, func() { b.Record(dist.PhaseGather, 3, start, "KID") }); n != 0 {
		t.Fatalf("disabled Record allocates %v per call", n)
	}
}
