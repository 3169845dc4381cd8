// Package kbfgs implements KBFGS-L, the limited-memory Kronecker-block
// quasi-Newton baseline (Goldfarb, Ren & Bahamou, 2020). Each layer's
// Fisher-block inverse action is approximated by a damped limited-memory
// BFGS two-loop recursion over (Δw, Δg) curvature pairs harvested at
// update iterations.
package kbfgs

import (
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/precond"
	"repro/internal/sched"
)

// KBFGSL preconditions each layer gradient with an L-BFGS inverse-Hessian
// estimate built from per-layer curvature pairs. Pairs are Powell-damped so
// the estimate stays positive definite even on the nonconvex DNN loss.
type KBFGSL struct {
	// History is the limited-memory window (pairs kept per layer).
	History int
	// Damping regularizes the curvature pairs (λ in y ← y + λ·s).
	Damping float64

	precond.Base
	state []*lbfgsState
}

type lbfgsState struct {
	prevW, prevG []float64
	s, y         [][]float64
	rho          []float64
}

// NewKBFGSL builds the preconditioner over the network's kernel layers.
func NewKBFGSL(net *nn.Network, damping float64, history int) *KBFGSL {
	k := &KBFGSL{History: history, Damping: damping}
	// Comm-free and RNG-free per-layer work: one compute stage each for the
	// pair harvest and the two-loop recursion.
	k.Init("kbfgs", net, dist.Local(), nil, k.stageTwoLoop,
		[]sched.Stage{{Name: "curvature_pairs", Fn: k.stageHarvest}})
	k.state = make([]*lbfgsState, len(k.Layers))
	// The curvature pairs are harvested one per update from weight and
	// gradient deltas; none can be rebuilt after a restore, nor can the
	// previous weights and gradients the next pair subtracts. The layer's
	// dims guard the section; Check, the vectors a load replaces.
	k.State = mat.Fields{uint32(len(k.Layers))}
	for i, l := range k.Layers {
		st := &lbfgsState{}
		k.state[i] = st
		dIn, dOut := l.Dims()
		k.State = append(k.State, uint32(dIn), uint32(dOut), &st.prevW, &st.prevG, &st.s, &st.y, &st.rho)
	}
	k.Fits = func(i, dIn, dOut int) bool { return k.state[i].fits(dIn*dOut, k.History) }
	return k
}

// fits reports whether the previous weights and gradients are both absent
// or both of n elements, and there are at most history pairs, each of n
// elements with its ρ: what stageHarvest and stageTwoLoop index.
func (st *lbfgsState) fits(n, history int) bool {
	ok := len(st.prevG) == len(st.prevW) && (len(st.prevW) == 0 || len(st.prevW) == n) &&
		len(st.s) <= history && len(st.y) == len(st.s) && len(st.rho) == len(st.s)
	for j := 0; ok && j < len(st.s); j++ {
		ok = len(st.s[j]) == n && len(st.y[j]) == n
	}
	return ok
}

// Name implements opt.Preconditioner.
func (k *KBFGSL) Name() string { return "KBFGS-L" }

// Update implements opt.Preconditioner: harvest a damped curvature pair
// per layer from the weight and gradient deltas since the last update.
// Every layer takes part, captured or not, so KBFGS-L keeps its own Update.
func (k *KBFGSL) Update() { k.RunUpdate(len(k.Layers)) }

// stageHarvest is one layer of Update, recorded as the curvature_pairs
// phase: this method's analogue of the factorization.
func (k *KBFGSL) stageHarvest(i int) {
	t0 := time.Now()
	l := k.Layers[i]
	st := k.state[i]
	w := flat(l.Weight().W)
	g := flat(l.Weight().Grad)
	if st.prevW != nil {
		s := sub(w, st.prevW)
		y := sub(g, st.prevG)
		// Levenberg-style damping keeps sᵀy > 0.
		for j := range y {
			y[j] += float64(k.Damping * s[j])
		}
		sy := dot(s, y)
		ss := dot(s, s)
		if sy > 1e-12*ss && ss > 0 {
			st.s = append(st.s, s)
			st.y = append(st.y, y)
			st.rho = append(st.rho, 1/sy)
			if len(st.s) > k.History {
				// Recycle the evicted pair's storage.
				mat.PutFloats(st.s[0])
				mat.PutFloats(st.y[0])
				st.s = st.s[1:]
				st.y = st.y[1:]
				st.rho = st.rho[1:]
			}
		} else {
			// Rejected pair: return the scratch immediately.
			mat.PutFloats(s)
			mat.PutFloats(y)
		}
	}
	// Recycle the previous snapshots now that the deltas are computed.
	mat.PutFloats(st.prevW)
	mat.PutFloats(st.prevG)
	st.prevW = w
	st.prevG = g
	k.Record("curvature_pairs", i, t0)
}

// stageTwoLoop is one layer of Precondition: the standard two-loop
// recursion applied to the flattened gradient, recorded as the
// two_loop_recursion phase (the inverse application). A layer with no
// curvature pair yet is left alone.
func (k *KBFGSL) stageTwoLoop(i int) {
	t0 := time.Now()
	l := k.Layers[i]
	st := k.state[i]
	if len(st.s) == 0 {
		return
	}
	grad := l.Weight().Grad
	q := flat(grad)
	n := len(st.s)
	alpha := mat.GetFloats(n)
	for j := n - 1; j >= 0; j-- {
		alpha[j] = st.rho[j] * dot(st.s[j], q)
		axpy(q, st.y[j], -alpha[j])
	}
	// Initial scaling H₀ = (sᵀy / yᵀy) I from the newest pair; a
	// degenerate pair (yᵀy = 0, or non-finite dots) falls back to H₀ = I
	// rather than letting a NaN/Inf scale poison the whole direction.
	gammaN := dot(st.s[n-1], st.y[n-1]) / dot(st.y[n-1], st.y[n-1])
	if math.IsNaN(gammaN) || math.IsInf(gammaN, 0) || gammaN <= 0 {
		gammaN = 1
	}
	for j := range q {
		q[j] *= gammaN
	}
	for j := 0; j < n; j++ {
		beta := float64(st.rho[j] * dot(st.y[j], q))
		axpy(q, st.s[j], alpha[j]-beta)
	}
	// A poisoned curvature pair can still make the recursion emit
	// non-finite coordinates: degrade to the raw (scrubbed) gradient —
	// the identity rung of the degradation ladder — instead of storing
	// NaNs into the step.
	if !mat.AllFinite(q) {
		numerics.RecordFallback("kbfgs.twoloop", numerics.RungIdentity,
			"two-loop recursion produced non-finite direction")
		copy(q, grad.Data())
		if scrubbed := mat.ScrubNonFinite(q); scrubbed > 0 {
			numerics.AddScrubs(scrubbed)
		}
	}
	copy(grad.Data(), q)
	mat.PutFloats(alpha)
	mat.PutFloats(q)
	k.Record("two_loop_recursion", i, t0)
}

// flat returns a pooled copy of the matrix contents; callers own the slice
// and are responsible for returning it with mat.PutFloats.
func flat(m *mat.Dense) []float64 {
	out := mat.GetFloats(len(m.Data()))
	copy(out, m.Data())
	return out
}

// sub returns the pooled difference a − b; callers own the slice.
func sub(a, b []float64) []float64 {
	out := mat.GetFloats(len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func axpy(dst, src []float64, c float64) {
	for i := range dst {
		dst[i] += float64(c * src[i])
	}
}
