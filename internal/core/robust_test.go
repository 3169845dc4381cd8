package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/numerics"
)

// dupRowBatch builds factor matrices whose rows are all identical — the
// kernel K = AAᵀ ∘ GGᵀ collapses to numerical rank 1, the canonical
// singular-system input.
func dupRowBatch(seed uint64, m, d int) (*mat.Dense, *mat.Dense) {
	rng := mat.NewRNG(seed)
	a := mat.RandN(rng, 1, d, 1)
	g := mat.RandN(rng, 1, d, 1)
	ad := mat.NewDense(m, d)
	gd := mat.NewDense(m, d)
	for i := 0; i < m; i++ {
		copy(ad.Row(i), a.Row(0))
		copy(gd.Row(i), g.Row(0))
	}
	return ad, gd
}

func randGrad(seed uint64, n int) []float64 {
	rng := mat.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Norm()
	}
	return out
}

// Bad damping must be rejected with the typed error on every solve path —
// α → 0 previously produced Inf/NaN updates or hung the retry loop.
func TestPreconditionBadDamping(t *testing.T) {
	rng := mat.NewRNG(3)
	a := mat.RandN(rng, 8, 3, 1)
	g := mat.RandN(rng, 8, 3, 1)
	grad := randGrad(4, 9)
	for _, alpha := range []float64{0, -0.1, math.NaN(), math.Inf(1), 1e-320} {
		if _, err := PreconditionExact(a, g, grad, alpha); !errors.Is(err, ErrBadDamping) {
			t.Fatalf("exact α=%g: err = %v; want ErrBadDamping", alpha, err)
		}
		for _, mode := range []Mode{ModeKID, ModeKIS} {
			if _, err := PreconditionReduced(a, g, grad, alpha, 4, mode, rng); !errors.Is(err, ErrBadDamping) {
				t.Fatalf("reduced %v α=%g: err = %v; want ErrBadDamping", mode, alpha, err)
			}
		}
		if _, err := PreconditionNystrom(a, g, grad, alpha, 4, rng); !errors.Is(err, ErrBadDamping) {
			t.Fatalf("nystrom α=%g: err = %v; want ErrBadDamping", alpha, err)
		}
	}
}

// Duplicated-row batches (singular kernel) through every solve path must
// produce a finite result or a typed error — never panic, never hang.
func TestDegenerateDuplicatedRowsNeverPanic(t *testing.T) {
	a, g := dupRowBatch(7, 12, 4)
	grad := randGrad(8, 16)
	rng := mat.NewRNG(9)
	for _, alpha := range []float64{0.3, 1e-8, 1e-150} {
		if out, err := PreconditionExact(a, g, grad, alpha); err == nil {
			if !mat.AllFinite(out) {
				t.Fatalf("exact α=%g: non-finite success", alpha)
			}
		} else if !errors.Is(err, ErrSingularKernel) && !errors.Is(err, ErrNonFiniteResult) {
			t.Fatalf("exact α=%g: untyped error %v", alpha, err)
		}
		for _, mode := range []Mode{ModeKID, ModeKIS} {
			out, err := PreconditionReduced(a, g, grad, alpha, 4, mode, rng)
			if err == nil {
				if !mat.AllFinite(out) {
					t.Fatalf("reduced %v α=%g: non-finite success", mode, alpha)
				}
				continue
			}
			if !errors.Is(err, ErrSingularKernel) && !errors.Is(err, ErrNonFiniteResult) &&
				!errors.Is(err, mat.ErrIllConditioned) {
				t.Fatalf("reduced %v α=%g: untyped error %v", mode, alpha, err)
			}
		}
		if out, err := PreconditionNystrom(a, g, grad, alpha, 4, rng); err == nil {
			if !mat.AllFinite(out) {
				t.Fatalf("nystrom α=%g: non-finite success", alpha)
			}
		} else if !errors.Is(err, ErrSingularKernel) && !errors.Is(err, ErrNonFiniteResult) {
			t.Fatalf("nystrom α=%g: untyped error %v", alpha, err)
		}
	}
}

// An all-zero gradient is a fixed point of every path: P(0) = 0, finite,
// no error (the kernel itself is healthy).
func TestDegenerateZeroGradient(t *testing.T) {
	rng := mat.NewRNG(13)
	a := mat.RandN(rng, 10, 3, 1)
	g := mat.RandN(rng, 10, 3, 1)
	zero := make([]float64, 9)
	check := func(name string, out []float64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range out {
			if v != 0 {
				t.Fatalf("%s: P(0) != 0", name)
			}
		}
	}
	out, err := PreconditionExact(a, g, zero, 0.2)
	check("exact", out, err)
	out, err = PreconditionReduced(a, g, zero, 0.2, 4, ModeKID, rng)
	check("kid", out, err)
	out, err = PreconditionReduced(a, g, zero, 0.2, 4, ModeKIS, rng)
	check("kis", out, err)
	out, err = PreconditionNystrom(a, g, zero, 0.2, 4, rng)
	check("nystrom", out, err)
}

// The acceptance scenario: a deterministically injected singular kernel —
// a duplicated-row batch at tiny α — must complete without panicking, with
// the numerics monitor recording the damping retries that rescued (or
// condemned) the solve.
func TestSingularKernelInjectionRecordsRetries(t *testing.T) {
	numerics.Reset()
	defer numerics.Reset()

	a, g := dupRowBatch(21, 16, 4)
	grad := randGrad(22, 16)
	const alpha = 1e-300 // kernel = rank-1 + αI: numerically singular
	out, err := PreconditionExact(a, g, grad, alpha)
	if err == nil && !mat.AllFinite(out) {
		t.Fatal("non-finite success")
	}
	snap := numerics.Default().Snapshot()
	if snap.TotalRetries() == 0 {
		t.Fatalf("singular kernel solved with zero damping retries (err=%v); retries=%v",
			err, snap.Retries)
	}
}

// Satellite (a): a NaN/Inf loss is a maximally failed step — the damping
// must grow, and the poisoned loss must NOT become the comparison baseline.
func TestDampingAdapterNonFiniteLoss(t *testing.T) {
	d := &DampingAdapter{Min: 1e-6, Max: 10}
	// Establish a healthy baseline.
	damping := d.Observe(1.0, 0.5)
	if damping != 1.0 { // first observation: no history yet, clamp only
		t.Fatalf("first observe = %g; want 1.0", damping)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		grown := d.Observe(1.0, bad)
		if grown <= 1.0 {
			t.Fatalf("loss=%v: damping %g did not grow", bad, grown)
		}
		prev, seen := d.State()
		if !seen || prev != 0.5 {
			t.Fatalf("loss=%v poisoned the baseline: prev=%g seen=%v", bad, prev, seen)
		}
	}
	// The preserved baseline still drives the schedule: an improving loss
	// shrinks the damping again.
	if shrunk := d.Observe(1.0, 0.4); shrunk >= 1.0 {
		t.Fatalf("improving loss after NaN did not shrink damping: %g", shrunk)
	}
}

// A NaN loss as the FIRST observation must not seed the history either.
func TestDampingAdapterNaNFirstObservation(t *testing.T) {
	d := &DampingAdapter{}
	d.Observe(1.0, math.NaN())
	if _, seen := d.State(); seen {
		t.Fatal("NaN first observation stored as baseline")
	}
}

// Bounded escalation: KIDFactors on a NaN batch must terminate with an
// error rather than loop forever (the pre-ladder code retried unboundedly).
func TestKIDFactorsNaNTerminates(t *testing.T) {
	a := mat.NewDense(6, 3)
	a.Fill(math.NaN())
	g := mat.NewDense(6, 3)
	g.Fill(math.NaN())
	if _, _, _, err := KIDFactors(a, g, 3, 0.1); err == nil {
		t.Fatal("NaN batch: expected error")
	}
	rng := mat.NewRNG(61)
	if _, _, _, err := KIDFactorsSketch(rng, a, g, 3, 0.1, 2, SketchGauss); err == nil {
		t.Fatal("NaN batch (randomized): expected error")
	}
}
