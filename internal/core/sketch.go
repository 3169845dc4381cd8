package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/numerics"
)

// Sketch selects the randomized projection used by the KID fast path:
// instead of running the pivoted QR on the full m×m Gram kernel, the
// kernel is first compressed to m×(r+oversample) and the interpolative
// decomposition runs on the sketch (Randomized K-FACs, Puiu,
// arXiv:2206.15397; Biagioni & Beylkin, the paper's reference [33]).
type Sketch int

const (
	// SketchOff runs the exact pivoted-QR interpolative decomposition.
	SketchOff Sketch = iota
	// SketchGauss sketches with a dense Gaussian projection (one GEMM,
	// O(m²k) on the Gram kernel).
	SketchGauss
	// SketchSRHT sketches with the subsampled randomized Hadamard
	// transform (O(m² log m) on the Gram kernel, independent of the
	// sketch width).
	SketchSRHT
)

// String implements fmt.Stringer with the -kid-sketch flag vocabulary.
func (s Sketch) String() string {
	switch s {
	case SketchGauss:
		return "gauss"
	case SketchSRHT:
		return "srht"
	}
	return "off"
}

// matKind maps onto the mat-layer sketch kernels; callers must not pass
// SketchOff.
func (s Sketch) matKind() mat.SketchKind {
	if s == SketchSRHT {
		return mat.SketchSRHT
	}
	return mat.SketchGauss
}

// DefaultOversample is the default sketch width beyond the target rank
// (the randomized ID projects onto r+oversample dimensions).
const DefaultOversample = 8

// sketchResidualMax bounds the reconstruction residual a sketched ID may
// leave relative to the kernel norm: a usable interpolation basis keeps
// ‖Q − P·Q[S,:]‖_F on the order of the discarded spectrum, well below
// ‖Q‖_F; an unlucky sketch that missed the dominant row space amplifies P
// and overshoots by orders of magnitude.
const sketchResidualMax = 4.0

// Typed guard failures of the sketched KID path; callers fall back to the
// exact factorization (numerics.RungExact) on either.
var (
	// ErrSketchIllConditioned reports a sketch whose pivoted-QR diagonal
	// ratio exceeded numerics.CondLimit(): the interpolation basis is
	// numerically rank-deficient and the coefficients cannot be trusted.
	ErrSketchIllConditioned = errors.New("core: KID sketch ill-conditioned")
	// ErrSketchResidual reports a sketched ID whose reconstruction
	// residual overshot sketchResidualMax·‖Q‖ (or went non-finite).
	ErrSketchResidual = errors.New("core: KID sketch reconstruction residual overshoot")
)

// KIDFactorsSketch is KIDFactors with the interpolative decomposition
// replaced by a sketched randomized ID. The sketch is guarded before the
// expensive m×m residual solve: a condition estimate above
// numerics.CondLimit() or a reconstruction-residual overshoot returns
// ErrSketchIllConditioned / ErrSketchResidual so callers can redo the
// layer with the exact factorization. The guard consumes the same RNG
// draws regardless of outcome, so the stream position stays deterministic
// across accept and reject.
func KIDFactorsSketch(rng *mat.RNG, a, g *mat.Dense, r int, alpha float64, oversample int, kind Sketch) (as, gs, y *mat.Dense, err error) {
	var ws kidWS
	return kidFactorsSketchInto(&ws, nil, nil, nil, rng, a, g, r, alpha, oversample, kind)
}

// kidFactorsSketchInto is KIDFactorsSketch writing into persistent
// pool-backed buffers with the kidFactorsInto replace-on-return contract;
// ws persists the sketch's own P/S across calls. On error the buffers
// passed in are handed back unchanged so the caller keeps its pooled
// storage and can rerun the exact path.
func kidFactorsSketchInto(ws *kidWS, as, gs, y *mat.Dense, rng *mat.RNG, a, g *mat.Dense, r int, alpha float64, oversample int, kind Sketch) (asOut, gsOut, yOut *mat.Dense, err error) {
	m := a.Rows()
	if g.Rows() != m {
		panic("core: KIDFactorsSketch row mismatch")
	}
	if oversample <= 0 {
		oversample = DefaultOversample
	}
	q := mat.GetDense(m, m)
	defer mat.PutDense(q)
	mat.KernelMatrixInto(q, a, g)
	var cond float64
	ws.p, ws.s, cond = mat.RandomizedIDInto(ws.p, ws.s, rng, q, r, oversample, kind.matKind())
	numerics.ObserveCondition("core.kid.sketch", cond)
	if !(cond <= numerics.CondLimit()) {
		return as, gs, y, fmt.Errorf("%w (cond %.3g, limit %.3g)", ErrSketchIllConditioned, cond, numerics.CondLimit())
	}
	res := kidResidual(q, ws)
	defer mat.PutDense(res)
	qnorm := q.FrobNorm()
	rnorm := res.FrobNorm()
	if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) || rnorm > sketchResidualMax*qnorm {
		return as, gs, y, fmt.Errorf("%w (‖R‖=%.3g vs ‖Q‖=%.3g)", ErrSketchResidual, rnorm, qnorm)
	}
	return kidSolveInto(ws, as, gs, y, a, g, res, alpha, "core.kidsketch.residual")
}
