// Package core implements HyLo, the paper's contribution: a hybrid
// low-rank natural-gradient preconditioner that reduces the per-sample
// factors A and G to rank-r KID or KIS factors before the SMW kernel
// inversion, with a gradient-based heuristic switching between the two
// per epoch (Algorithm 1).
//
// The same code path runs single-process (dist.Local()) and on the
// simulated cluster (dist.Worker): per-worker factors are reduced locally,
// gathered, the owning worker inverts the r×r reduced kernel, and the
// result is broadcast — exactly the distributed schedule of Fig. 1.
package core

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// DefaultIDTol is the default relative tolerance for numerical-rank
// truncation inside the interpolative decomposition: pivoted-QR diagonal
// entries below DefaultIDTol·|R(0,0)| are treated as numerically zero
// (exactly what duplicated batch rows produce) and the KID factors
// truncate to the detected rank.
const DefaultIDTol = 1e-12

// maxDampAttempts bounds the Levenberg-Marquardt damping escalation at the
// reduced-system solve sites before the degradation ladder moves to the
// next rung.
const maxDampAttempts = 6

// Mode selects the low-rank reduction used in an epoch.
type Mode int

// The two reduction algorithms of Sec. III.
const (
	// ModeKID is the Khatri-Rao interpolative decomposition (Algorithm 2):
	// higher accuracy, higher cost; used for critical epochs.
	ModeKID Mode = iota
	// ModeKIS is Khatri-Rao importance sampling (Algorithm 3): cheap
	// norm-based sampling; used for non-critical epochs.
	ModeKIS
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeKID {
		return "KID"
	}
	return "KIS"
}

// KIDFactors implements Algorithm 2: it reduces per-sample factors
// (a, g ∈ R^{m×d·}) to rank-r KID factors via an interpolative
// decomposition of the Gram (kernel) matrix Q = a aᵀ ∘ g gᵀ.
//
// It returns the selected rows aˢ = a[S,:], gˢ = g[S,:] and the projected
// residual correction Y = Pᵀ (R + αI)⁻¹ P with R = Q − P·Q[S,:].
//
// The residual solve escalates damping a bounded number of times before
// giving up with a non-nil error; the inputs are never panicked on, and on
// error the returned matrices are nil.
func KIDFactors(a, g *mat.Dense, r int, alpha float64) (as, gs, y *mat.Dense, err error) {
	var ws kidWS
	return kidFactorsInto(&ws, nil, nil, nil, a, g, r, alpha, DefaultIDTol)
}

// kidWS owns one layer's persistent interpolative-decomposition buffers
// (the interpolation matrix P and row selection S), shared by the exact and
// the sketched path and following the EnsureDense replace-on-return
// contract so steady-state reuse allocates nothing.
type kidWS struct {
	p *mat.Dense
	s []int
}

// kidFactorsInto is KIDFactors writing the results into persistent
// pool-backed buffers (checked out when nil or wrongly sized): the returned
// matrices replace the ones passed in, exactly like mat.EnsureDense; ws
// persists the decomposition's own P/S across calls. All internal scratch
// cycles through the pool, so the steady state of an iterative caller
// allocates nothing. tol is the interpolative-decomposition numerical-rank
// tolerance (0 disables truncation). On error the buffers passed in are
// handed back unchanged so the caller keeps its pooled storage.
func kidFactorsInto(ws *kidWS, as, gs, y, a, g *mat.Dense, r int, alpha, tol float64) (asOut, gsOut, yOut *mat.Dense, err error) {
	m := a.Rows()
	if g.Rows() != m {
		panic("core: KIDFactors row mismatch")
	}
	// (1) Gram matrix of the Khatri-Rao rows.
	q := mat.GetDense(m, m)
	defer mat.PutDense(q)
	mat.KernelMatrixInto(q, a, g)
	// (2) Row interpolative decomposition Q ≈ P Q[S,:], truncated to the
	// numerical rank when duplicated/near-collinear rows collapse it.
	ws.p, ws.s = mat.InterpolativeDecompInto(ws.p, ws.s, q, r, tol)
	res := kidResidual(q, ws)
	defer mat.PutDense(res)
	return kidSolveInto(ws, as, gs, y, a, g, res, alpha, "core.kid.residual")
}

// kidResidual forms step (3) of Algorithm 2, the residue R = Q − P·Q[S,:],
// in a pooled m×m matrix the caller returns.
func kidResidual(q *mat.Dense, ws *kidWS) *mat.Dense {
	qs := mat.GetDense(len(ws.s), q.Cols())
	defer mat.PutDense(qs)
	q.SelectRowsInto(qs, ws.s)
	res := mat.GetDense(q.Rows(), q.Cols())
	mat.MulInto(res, ws.p, qs)
	mat.SubInto(res, q, res)
	return res
}

// kidSolveInto is step (4), shared by the exact and the sketched path:
// Y = Pᵀ(R+αI)⁻¹P and the selected rows of a and g. (R+αI) is a general
// matrix, mutated in place here; the m×r system (R+αI)X = P is solved
// directly — no m×m inverse is formed — with the bounded damping
// escalation of dampedSolve, recorded under site.
func kidSolveInto(ws *kidWS, as, gs, y, a, g, res *mat.Dense, alpha float64, site string) (asOut, gsOut, yOut *mat.Dense, err error) {
	p, s := ws.p, ws.s
	damped := res.AddDiag(alpha)
	x := mat.GetDense(p.Rows(), p.Cols())
	defer mat.PutDense(x)
	err = dampedSolve(damped, math.Max(alpha, 1e-8), site, func() (float64, error) {
		return mat.SolveCondInto(x, damped, p)
	})
	if err != nil {
		return as, gs, y, fmt.Errorf("%s system %w", site, err)
	}
	y = mat.EnsureDense(y, p.Cols(), p.Cols())
	mat.MulTAInto(y, p, x)
	as = mat.EnsureDense(as, len(s), a.Cols())
	a.SelectRowsInto(as, s)
	gs = mat.EnsureDense(gs, len(s), g.Cols())
	g.SelectRowsInto(gs, s)
	return as, gs, y, nil
}

// errOrIllConditioned wraps the underlying factorization error, defaulting
// to mat.ErrIllConditioned when the solve succeeded numerically but the
// condition estimate exceeded the configured limit.
func errOrIllConditioned(err error) error {
	if err != nil {
		return err
	}
	return mat.ErrIllConditioned
}

// KISFactors implements Algorithm 3: norm-based importance sampling of r
// rows. The score of sample j is ‖a_j‖·‖g_j‖ — the Khatri-Rao structure
// makes this the exact row norm of the Jacobian U = a ⊙ g. Sampling is
// without replacement, weighted by the normalized scores (Efraimidis-
// Spirakis keys), and selected rows are rescaled by (r·q_j)^(-1/4) on both
// factors so the reduced kernel is an unbiased estimate of the full one
// (Drineas-Kannan-Mahoney); pass rescale=false for the plain row
// selection written in the paper's pseudocode.
func KISFactors(rng *mat.RNG, a, g *mat.Dense, r int, rescale bool) (as, gs *mat.Dense) {
	return kisFactorsInto(nil, nil, rng, a, g, r, rescale)
}

// kisFactorsInto is KISFactors writing into persistent pool-backed buffers,
// with the same replace-on-return contract as kidFactorsInto. It is split
// into kisSample (the only RNG-consuming part) and kisSelectInto (pure row
// selection) so the layer-parallel scheduler can draw all samples on the
// main goroutine in layer order and run the selections concurrently.
func kisFactorsInto(as, gs *mat.Dense, rng *mat.RNG, a, g *mat.Dense, r int, rescale bool) (asOut, gsOut *mat.Dense) {
	idx, coeff := kisSample(rng, a, g, r, rescale)
	return kisSelectInto(as, gs, a, g, idx, coeff)
}

// kisScores fills scores with the normalized sampling weights
// ‖a_j‖·‖g_j‖ of Algorithm 3 and returns their sum. Each norm vector is
// normalized to [0,1] before forming the products: rows near √MaxFloat64
// would otherwise overflow na·ng to +Inf and poison the sampling weights.
// Scores are scale-invariant, so relative weights (and the (r·q_j)^(-1/4)
// rescale) are unchanged for finite inputs; ±Inf norms map to the top
// weight, NaN to zero. A degenerate all-zero batch becomes uniform.
func kisScores(scores []float64, a, g *mat.Dense) (total float64) {
	m := a.Rows()
	na := mat.GetFloats(m)
	defer mat.PutFloats(na)
	ng := mat.GetFloats(m)
	defer mat.PutFloats(ng)
	mat.RowNormsInto(na, a)
	mat.RowNormsInto(ng, g)
	normalizeScores(na)
	normalizeScores(ng)
	for j := range scores {
		scores[j] = na[j] * ng[j]
		total += scores[j]
	}
	if total == 0 {
		for j := range scores {
			scores[j] = 1
		}
		total = float64(m)
	}
	return total
}

// kisSample draws the KIS row subset — the RNG-consuming half of
// Algorithm 3. With rescale it also returns the per-row factor
// (r·q_j)^(-1/4) applied to both selected factors; coeff is nil otherwise.
func kisSample(rng *mat.RNG, a, g *mat.Dense, r int, rescale bool) (idx []int, coeff []float64) {
	m := a.Rows()
	if g.Rows() != m {
		panic("core: KISFactors row mismatch")
	}
	if r > m {
		r = m
	}
	scores := mat.GetFloats(m)
	defer mat.PutFloats(scores)
	total := kisScores(scores, a, g)
	idx = weightedSampleWithoutReplacement(rng, scores, r)
	if rescale {
		coeff = make([]float64, len(idx))
		for k, j := range idx {
			qj := scores[j] / total
			coeff[k] = math.Pow(float64(r)*qj, -0.25)
		}
	}
	return idx, coeff
}

// kisSelectInto materializes the sampled factors: pure per-layer work with
// no shared state, safe to run concurrently across layers.
func kisSelectInto(as, gs, a, g *mat.Dense, idx []int, coeff []float64) (asOut, gsOut *mat.Dense) {
	as = mat.EnsureDense(as, len(idx), a.Cols())
	a.SelectRowsInto(as, idx)
	gs = mat.EnsureDense(gs, len(idx), g.Cols())
	g.SelectRowsInto(gs, idx)
	for k, c := range coeff {
		rowScale(as.Row(k), c)
		rowScale(gs.Row(k), c)
	}
	return as, gs
}

// kisTopKInto is the deterministic degradation-ladder variant of KIS used
// when the KID factorization fails: it keeps the r highest-scored rows
// (ties broken toward the lower index) instead of sampling them. Consuming
// no RNG, it can fire from any scheduler stage without perturbing the
// shared stream, and every rank deterministically picks the same subset.
// There is no importance rescale — the selection is not a probability
// draw, so the unbiasedness correction does not apply.
func kisTopKInto(as, gs, a, g *mat.Dense, r int) (asOut, gsOut *mat.Dense) {
	m := a.Rows()
	if g.Rows() != m {
		panic("core: kisTopKInto row mismatch")
	}
	if r > m {
		r = m
	}
	scores := mat.GetFloats(m)
	defer mat.PutFloats(scores)
	kisScores(scores, a, g)
	idx := make([]int, 0, r)
	taken := make([]bool, m)
	for k := 0; k < r; k++ {
		best := -1
		for j := 0; j < m; j++ {
			if !taken[j] && (best < 0 || scores[j] > scores[best]) {
				best = j
			}
		}
		taken[best] = true
		idx = append(idx, best)
	}
	return kisSelectInto(as, gs, a, g, idx, nil)
}

func rowScale(row []float64, c float64) {
	for i := range row {
		row[i] *= c
	}
}

// normalizeScores rescales a non-negative score vector by its largest
// finite entry so downstream products cannot overflow: NaN entries become
// 0 (excluded from sampling), +Inf entries become 1 (the maximum weight).
func normalizeScores(v []float64) {
	var mx float64
	for _, x := range v {
		if x > mx && !math.IsInf(x, 0) {
			mx = x
		}
	}
	if mx == 0 {
		mx = 1
	}
	for i, x := range v {
		switch {
		case math.IsNaN(x):
			v[i] = 0
		case math.IsInf(x, 0):
			v[i] = 1
		default:
			v[i] = x / mx
		}
	}
}

// weightedSampleWithoutReplacement draws r indices with probability
// proportional to weights, without replacement, using exponential keys
// (Efraimidis & Spirakis): pick the r smallest e_j/w_j with e_j ~ Exp(1).
func weightedSampleWithoutReplacement(rng *mat.RNG, weights []float64, r int) []int {
	type kv struct {
		key float64
		idx int
	}
	keys := make([]kv, 0, len(weights))
	for j, w := range weights {
		if w <= 0 {
			continue
		}
		u := rng.Float64()
		if u == 0 {
			u = 1e-300
		}
		keys = append(keys, kv{key: -math.Log(u) / w, idx: j})
	}
	if r > len(keys) {
		r = len(keys)
	}
	// Partial selection of the r smallest keys.
	for i := 0; i < r; i++ {
		best := i
		for j := i + 1; j < len(keys); j++ {
			if keys[j].key < keys[best].key {
				best = j
			}
		}
		keys[i], keys[best] = keys[best], keys[i]
	}
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = keys[i].idx
	}
	return out
}

// SwitchPolicy decides the reduction mode for an epoch. ratio is the
// relative change R of accumulated-gradient norms (Eq. 10); it is NaN for
// the first two epochs, before enough history exists.
type SwitchPolicy interface {
	Choose(epoch int, lrDecayed bool, ratio float64, rng *mat.RNG) Mode
}

// GradientSwitch is the paper's heuristic: KID on critical epochs — when
// the learning rate decays or R ≥ Eta — and KIS otherwise. Epochs without
// history default to KID (the paper's runs use KID for the initial epochs,
// where gradients change rapidly).
type GradientSwitch struct {
	Eta float64
}

// Choose implements SwitchPolicy.
func (s GradientSwitch) Choose(epoch int, lrDecayed bool, ratio float64, _ *mat.RNG) Mode {
	if lrDecayed || math.IsNaN(ratio) || ratio >= s.Eta {
		return ModeKID
	}
	return ModeKIS
}

// RandomSwitch is the Table III ablation: a fair coin each epoch.
type RandomSwitch struct{}

// Choose implements SwitchPolicy.
func (RandomSwitch) Choose(_ int, _ bool, _ float64, rng *mat.RNG) Mode {
	if rng.Float64() < 0.5 {
		return ModeKID
	}
	return ModeKIS
}

// FixedSwitch always selects one mode (used by the KID-only / KIS-only
// ablations and the per-method profiling of Fig. 7).
type FixedSwitch struct{ Mode Mode }

// Choose implements SwitchPolicy.
func (f FixedSwitch) Choose(_ int, _ bool, _ float64, _ *mat.RNG) Mode { return f.Mode }
