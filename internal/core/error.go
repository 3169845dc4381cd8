package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/numerics"
)

// Typed failure modes of the preconditioning path. Callers route these
// into the degradation ladder (HyLo.stageFactorize/stageInvert) or surface
// them; nothing on the solve path panics.
var (
	// ErrBadDamping reports a damping parameter that cannot produce a
	// meaningful update: non-positive, non-finite, or so small that 1/α
	// overflows.
	ErrBadDamping = errors.New("core: damping must be positive, finite, and ≥ ~1e-300")

	// ErrNonFiniteResult reports that a solve completed but produced NaN
	// or ±Inf entries in the preconditioned gradient.
	ErrNonFiniteResult = errors.New("core: preconditioned gradient is not finite")

	// ErrSingularKernel reports a reduced kernel system that stayed
	// unsolvable (or above the condition limit) through the bounded
	// damped-retry escalation.
	ErrSingularKernel = errors.New("core: kernel system singular beyond damped retries")
)

// checkDamping validates α before it reaches a solve: the update divides
// by α, so subnormal or non-finite values poison every coordinate.
func checkDamping(alpha float64) error {
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha <= 0 || math.IsInf(1/alpha, 0) {
		return fmt.Errorf("%w (got %g)", ErrBadDamping, alpha)
	}
	return nil
}

// finiteOrErr passes out through unchanged when every entry is finite and
// reports ErrNonFiniteResult (counting the offending entries as scrubs)
// otherwise.
func finiteOrErr(out []float64, site string) ([]float64, error) {
	if mat.AllFinite(out) {
		return out, nil
	}
	n := 0
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			n++
		}
	}
	numerics.AddScrubs(n)
	return nil, fmt.Errorf("%w (%d non-finite entries at %s)", ErrNonFiniteResult, n, site)
}

// PreconditionExact applies the exact SNGD update (Eq. 7) to a flattened
// gradient given un-normalized per-sample factors a, g for the full batch:
// it returns (F + αI)⁻¹ g with F the mean Fisher. Used as the reference by
// the Fig. 12 gradient-error analysis and by the tests.
func PreconditionExact(a, g *mat.Dense, grad []float64, alpha float64) ([]float64, error) {
	if err := checkDamping(alpha); err != nil {
		return nil, err
	}
	scale := math.Pow(float64(a.Rows()), -0.25)
	an := a.Clone().Scale(scale)
	gn := g.Clone().Scale(scale)
	k := mat.KernelMatrix(an, gn).AddDiag(alpha)
	kinv, _, retries, _, err := mat.InvSPDDampedChecked(k, 0)
	if retries > 0 {
		numerics.AddRetries("core.exact", retries)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: exact kernel: %v", ErrSingularKernel, err)
	}
	y := mat.KhatriRaoApply(an, gn, grad)
	z := mat.MulVec(kinv, y)
	corr := mat.KhatriRaoApplyT(an, gn, z)
	out := make([]float64, len(grad))
	inv := 1 / alpha
	for j := range grad {
		out[j] = inv * (grad[j] - corr[j])
	}
	return finiteOrErr(out, "core.exact")
}

// PreconditionReduced applies the HyLo update for one layer given the full
// batch factors: it reduces (a, g) to rank r with the requested mode, then
// applies Eq. (8) (KID) or Eq. (9) (KIS). Singular inner systems escalate
// damping a bounded number of times and then return ErrSingularKernel —
// never panic.
func PreconditionReduced(a, g *mat.Dense, grad []float64, alpha float64, r int, mode Mode, rng *mat.RNG) ([]float64, error) {
	if err := checkDamping(alpha); err != nil {
		return nil, err
	}
	scale := math.Pow(float64(a.Rows()), -0.25)
	an := a.Clone().Scale(scale)
	gn := g.Clone().Scale(scale)
	var as, gs, m *mat.Dense
	switch mode {
	case ModeKID:
		var y *mat.Dense
		var err error
		as, gs, y, err = KIDFactors(an, gn, r, alpha)
		if err != nil {
			return nil, err
		}
		khat := mat.KernelMatrix(as, gs)
		iyk := mat.Mul(y, khat)
		iyk.AddDiag(1)
		inv, err := invGeneralDamped(iyk, "core.reduced.kid")
		if err != nil {
			return nil, fmt.Errorf("%w: KID inner system: %v", ErrSingularKernel, err)
		}
		m = mat.Mul(inv, y)
	case ModeKIS:
		as, gs = KISFactors(rng, an, gn, r, true)
		k := mat.KernelMatrix(as, gs).AddDiag(alpha)
		kinv, _, retries, _, err := mat.InvSPDDampedChecked(k, 0)
		if retries > 0 {
			numerics.AddRetries("core.reduced.kis", retries)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: KIS kernel: %v", ErrSingularKernel, err)
		}
		m = kinv
	}
	y := mat.KhatriRaoApply(as, gs, grad)
	z := mat.MulVec(m, y)
	corr := mat.KhatriRaoApplyT(as, gs, z)
	out := make([]float64, len(grad))
	inv := 1 / alpha
	for j := range grad {
		out[j] = inv * (grad[j] - corr[j])
	}
	return finiteOrErr(out, "core.reduced")
}

// invGeneralDamped inverts a general (non-symmetric) matrix with the same
// bounded Levenberg-Marquardt escalation used on the SPD path. The input is
// mutated by the retry boosts.
func invGeneralDamped(a *mat.Dense, site string) (*mat.Dense, error) {
	inv := mat.NewDense(a.Rows(), a.Cols())
	if err := invGeneralDampedInto(inv, a, site); err != nil {
		return nil, err
	}
	return inv, nil
}

// invGeneralDampedInto is invGeneralDamped writing into a caller-provided
// buffer. The input is mutated by the retry boosts; dst is unspecified on
// error.
func invGeneralDampedInto(dst, a *mat.Dense, site string) error {
	return dampedSolve(a, 1e-8, site, func() (float64, error) { return mat.InvCondInto(dst, a) })
}

// dampedSolve is the bounded Levenberg-Marquardt escalation of every
// general (LU) solve site: run solve, which factors a, and retry with
// decade-growing diagonal boosts on a (the first one firstBoost) while the
// factorization fails or the condition estimate exceeds
// numerics.CondLimit(), giving up after maxDampAttempts instead of looping
// (NaN input never converges). Damping retries are recorded on the numerics
// monitor under site.
func dampedSolve(a *mat.Dense, firstBoost float64, site string, solve func() (cond float64, err error)) error {
	retries := 0
	for boost := 0.0; ; {
		cond, err := solve()
		if err == nil && cond <= numerics.CondLimit() {
			if retries > 0 {
				numerics.AddRetries(site, retries)
			}
			return nil
		}
		if retries >= maxDampAttempts {
			numerics.AddRetries(site, retries)
			return fmt.Errorf("unsolvable after %d damped retries (cond %.3g): %w",
				retries, cond, errOrIllConditioned(err))
		}
		if boost == 0 {
			boost = firstBoost
		} else {
			boost *= 10
		}
		a.AddDiag(boost)
		retries++
	}
}

// GradError returns the normalized gradient error of Fig. 12,
// ε = ‖ĝ − g‖/‖g‖, where g is the exact SNGD-preconditioned gradient and
// ĝ uses the rank-r KID or KIS reduction. A solve failure on either path
// reports NaN rather than aborting an analysis sweep.
func GradError(a, g *mat.Dense, grad []float64, alpha float64, r int, mode Mode, rng *mat.RNG) float64 {
	exact, err := PreconditionExact(a, g, grad, alpha)
	if err != nil {
		return math.NaN()
	}
	approx, err := PreconditionReduced(a, g, grad, alpha, r, mode, rng)
	if err != nil {
		return math.NaN()
	}
	var num, den float64
	for j := range exact {
		d := approx[j] - exact[j]
		num += d * d
		den += exact[j] * exact[j]
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}
