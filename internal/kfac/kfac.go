// Package kfac implements the Kronecker-factored curvature baselines: KFAC
// (Martens & Grosse) with the KAISA-style distributed execution schedule
// (factor all-reduce, layer-assigned inversion, inverse broadcast), and
// EKFAC (George et al.), which rescales the Kronecker eigenbasis with a
// running diagonal second-moment estimate.
package kfac

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

// KFAC approximates each layer's Fisher block inverse with the Kronecker
// product of inverted input/gradient covariances (Eq. 6 of the paper):
//
//	(F + αI)⁻¹ ≈ (AᵀA/m + γI)⁻¹ ⊗ (GᵀG/m + γI)⁻¹.
type KFAC struct {
	// Damping is the factor damping γ.
	Damping float64
	// Decay is the running-average coefficient for the factors.
	Decay float64
	// PiCorrection enables the Tikhonov π damping split between the two
	// Kronecker factors (Martens & Grosse §6.3).
	PiCorrection bool

	precond.Base
	state []*kfacState
	plans []kfacPlan // per-layer pipeline slots of the current Update
}

// factors is the Kronecker-factor state KFAC and EKFAC share: the running
// covariance estimates and the staging for each step's fresh factors.
type factors struct {
	aFactor, gFactor *mat.Dense // running covariance estimates
	initialized      bool

	// Persistent staging for the freshly computed factors (handed to the
	// communicator, so owned here rather than pooled).
	faBuf, fgBuf *mat.Dense
}

func newFactors(l nn.KernelLayer) factors {
	dIn, dOut := l.Dims()
	return factors{aFactor: mat.NewDense(dIn, dIn), gFactor: mat.NewDense(dOut, dOut)}
}

// gram stages this step's factors AᵀA/m and GᵀG/m (KAISA step 2).
func (f *factors) gram(a, g *mat.Dense, m float64) {
	f.faBuf = mat.EnsureDense(f.faBuf, a.Cols(), a.Cols())
	mat.GramTInto(f.faBuf, a)
	f.faBuf.Scale(1 / m)
	f.fgBuf = mat.EnsureDense(f.fgBuf, g.Cols(), g.Cols())
	mat.GramTInto(f.fgBuf, g)
	f.fgBuf.Scale(1 / m)
}

// fold moves the running averages toward the all-reduced factors; the
// first observation bootstraps them.
func (f *factors) fold(fa, fg *mat.Dense, decay float64) {
	if !f.initialized {
		f.aFactor.CopyFrom(fa)
		f.gFactor.CopyFrom(fg)
		f.initialized = true
		return
	}
	f.aFactor.Scale(decay).AddScaled(fa, 1-decay)
	f.gFactor.Scale(decay).AddScaled(fg, 1-decay)
}

type kfacState struct {
	factors
	aInv, gInv *mat.Dense
}

// kfacPlan is one layer's slot in the scheduled pipeline; it persists
// across updates so the embedded futures are reused allocation-free.
type kfacPlan struct {
	layer, owner int
	l            nn.KernelLayer
	st           *kfacState
	m            float64

	a, g       *mat.Dense // this step's captures
	fa, fg     *mat.Dense // all-reduced factors
	aF, gF     dist.MatFuture
	aInv, gInv *mat.Dense // owner's inverses headed for broadcast
	aBF, gBF   dist.MatFuture
}

// NewKFAC builds a KFAC preconditioner over the network's kernel layers.
// comm may be dist.Local() for single-process runs. timeline is optional.
func NewKFAC(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *KFAC {
	k := &KFAC{Damping: damping, Decay: 0.95}
	// KAISA's schedule: one layer's factor all-reduce is in flight while
	// the next layer still computes its Gram factors.
	k.Init("kfac", net, comm, timeline, k.stagePrecondition, []sched.Stage{
		{Name: "factorize", Fn: k.stageFactorize},
		{Name: "reduce", Comm: true, Fn: k.stageReduce},
		{Name: "invert", Wait: k.waitReduce, Fn: k.stageInvert},
		{Name: "broadcast", Comm: true, Fn: k.stageBroadcast},
		{Name: "store", Wait: k.waitBroadcast, Fn: k.stageStore},
	})
	k.state = make([]*kfacState, len(k.Layers))
	for i, l := range k.Layers {
		k.state[i] = &kfacState{factors: newFactors(l)}
	}
	return k
}

// Name implements opt.Preconditioner.
func (k *KFAC) Name() string { return "KFAC" }

// Update implements opt.Preconditioner: recompute factors from the latest
// captures, all-reduce them, invert owned layers, broadcast inverses.
func (k *KFAC) Update() {
	p := k.Comm.Size()
	k.plans = k.plans[:0]
	for i, l := range k.Layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		k.plans = append(k.plans, kfacPlan{
			layer: i, owner: i % p, l: l, st: k.state[i],
			m: float64(a.Rows() * p), a: a, g: g,
		})
	}
	k.RunUpdate(len(k.plans))
}

// stageFactorize computes this step's factors, staged in persistent
// workspaces (KAISA step 2).
func (k *KFAC) stageFactorize(i int) {
	pl := &k.plans[i]
	t0 := time.Now()
	pl.st.gram(pl.a, pl.g, pl.m)
	k.Record(dist.PhaseFactorize, pl.layer, t0)
}

// stageReduce submits the factor all-reduces (KAISA step 3).
func (k *KFAC) stageReduce(i int) {
	pl := &k.plans[i]
	k.Async.StartAllReduceMat(&pl.aF, pl.st.faBuf)
	k.Async.StartAllReduceMat(&pl.gF, pl.st.fgBuf)
}

func (k *KFAC) waitReduce(i int) {
	pl := &k.plans[i]
	pl.fa = pl.aF.Wait()
	pl.fg = pl.gF.Wait()
}

// stageInvert folds the reduced factors into the running averages on the
// layer's owner, which alone keeps them and inverts (KAISA step 4, the
// memory-optimal placement).
func (k *KFAC) stageInvert(i int) {
	pl := &k.plans[i]
	st := pl.st
	k.RecordDur(dist.PhaseGather, pl.layer, pl.aF.Dur()+pl.gF.Dur())
	pl.aInv, pl.gInv = nil, nil
	if k.Comm.ID() == pl.owner {
		st.fold(pl.fa, pl.fg, k.Decay)
		t0 := time.Now()
		pl.aInv, pl.gInv = k.invertPair(pl.l, st)
		k.Record(dist.PhaseInvert, pl.layer, t0)
	}
}

// invertPair inverts both Kronecker factors with optional π damping split.
// A factor no damping stabilizes degrades to its diagonal (Jacobi)
// pseudo-inverse: the Kronecker product of diagonal inverses is still a
// usable (Adagrad-like) preconditioner.
func (k *KFAC) invertPair(l nn.KernelLayer, st *kfacState) (aInv, gInv *mat.Dense) {
	gA, gG := math.Sqrt(k.Damping), math.Sqrt(k.Damping)
	if k.PiCorrection {
		dIn, dOut := l.Dims()
		gA, gG = piCorrection(st.aFactor.Trace(), dIn, st.gFactor.Trace(), dOut, k.Damping)
	}
	return precond.InvertSPD(st.aFactor, gA, "kfac.A", numerics.RungDiagonal, mat.DiagInvDamped),
		precond.InvertSPD(st.gFactor, gG, "kfac.G", numerics.RungDiagonal, mat.DiagInvDamped)
}

// piCorrection returns the Tikhonov damping split of the original KFAC
// paper: γ_A = π·√γ and γ_G = √γ/π with π² = (tr(A)/dim_A)/(tr(G)/dim_G),
// which balances the two Kronecker factors' scales. Degenerate traces fall
// back to the symmetric split π = 1.
func piCorrection(trA float64, dimA int, trG float64, dimG int, damping float64) (gA, gG float64) {
	root := math.Sqrt(damping)
	if trA <= 0 || trG <= 0 || dimA <= 0 || dimG <= 0 {
		return root, root
	}
	pi := math.Sqrt((trA / float64(dimA)) / (trG / float64(dimG)))
	if math.IsNaN(pi) || math.IsInf(pi, 0) || pi <= 0 {
		return root, root
	}
	return pi * root, root / pi
}

// stageBroadcast submits the inverse broadcasts (KAISA step 5).
func (k *KFAC) stageBroadcast(i int) {
	pl := &k.plans[i]
	k.Async.StartBroadcastMat(&pl.aBF, pl.owner, pl.aInv)
	k.Async.StartBroadcastMat(&pl.gBF, pl.owner, pl.gInv)
}

func (k *KFAC) waitBroadcast(i int) {
	pl := &k.plans[i]
	pl.st.aInv = pl.aBF.Wait()
	pl.st.gInv = pl.gBF.Wait()
}

func (k *KFAC) stageStore(i int) {
	pl := &k.plans[i]
	k.RecordDur(dist.PhaseBroadcast, pl.layer, pl.aBF.Dur()+pl.gBF.Dur())
}

// stagePrecondition is one layer of Precondition: grad ← A⁻¹ · grad · G⁻¹.
func (k *KFAC) stagePrecondition(i int) {
	st := k.state[i]
	if st.aInv == nil {
		return
	}
	w := k.Layers[i].Weight()
	rows, cols := w.Grad.Dims()
	tmp := mat.GetDense(rows, cols)
	mat.MulInto(tmp, w.Grad, st.gInv)
	mat.MulInto(w.Grad, st.aInv, tmp)
	mat.PutDense(tmp)
}

// StateBytes implements opt.Preconditioner: the per-worker state actually
// held — inverses for every layer, plus running factors for the layers
// this worker owns (Table IV's O(d²) storage).
func (k *KFAC) StateBytes() int {
	var n int
	for i, l := range k.Layers {
		dIn, dOut := l.Dims()
		n += dIn*dIn + dOut*dOut // inverses
		if k.state[i].initialized {
			n += dIn*dIn + dOut*dOut // running factors
		}
	}
	return n * 8
}

// EKFAC refines KFAC by diagonally rescaling in the Kronecker eigenbasis:
// the factors are eigendecomposed and the per-coordinate curvature scale
// is tracked as a running average of the squared gradient projected into
// that basis (George et al., 2018).
type EKFAC struct {
	Damping float64
	Decay   float64

	precond.Base
	state []*ekfacState
}

type ekfacState struct {
	factors
	qa, qg    *mat.Dense // eigenbases
	scale     *mat.Dense // running E[(Qaᵀ g Qg)²], dIn×dOut
	scaleInit bool
}

// NewEKFAC builds an EKFAC preconditioner.
func NewEKFAC(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *EKFAC {
	e := &EKFAC{Damping: damping, Decay: 0.95}
	// No stage functions: Update refreshes the diagonal scale from the live
	// gradient, so EKFAC keeps its own sequential loops.
	e.Init("ekfac", net, comm, timeline, nil, nil)
	e.state = make([]*ekfacState, len(e.Layers))
	for i, l := range e.Layers {
		dIn, dOut := l.Dims()
		e.state[i] = &ekfacState{factors: newFactors(l), scale: mat.NewDense(dIn, dOut)}
	}
	return e
}

// Name implements opt.Preconditioner.
func (e *EKFAC) Name() string { return "EKFAC" }

// Update implements opt.Preconditioner.
func (e *EKFAC) Update() {
	p := e.Comm.Size()
	for i, l := range e.Layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		m := float64(a.Rows() * p)
		st := e.state[i]

		t0 := time.Now()
		st.gram(a, g, m)
		e.Record(dist.PhaseFactorize, i, t0)

		t0 = time.Now()
		fa := e.Comm.AllReduceMat(st.faBuf)
		fg := e.Comm.AllReduceMat(st.fgBuf)
		e.Record(dist.PhaseGather, i, t0)
		st.fold(fa, fg, e.Decay)

		// Eigendecompositions on the owning worker (the expensive step
		// EKFAC adds over KFAC).
		owner := i % p
		var qa, qg *mat.Dense
		if e.Comm.ID() == owner {
			t0 = time.Now()
			_, qa = mat.SymEig(st.aFactor)
			_, qg = mat.SymEig(st.gFactor)
			e.Record(dist.PhaseInvert, i, t0)
		}
		t0 = time.Now()
		st.qa = e.Comm.BroadcastMat(owner, qa)
		st.qg = e.Comm.BroadcastMat(owner, qg)
		e.Record(dist.PhaseBroadcast, i, t0)

		// Refresh the diagonal scale from the current gradient projected
		// into the eigenbasis (pooled scratch; sq = proj∘proj in place).
		w := l.Weight()
		rows, cols := w.Grad.Dims()
		tmp := mat.GetDense(rows, cols)
		mat.MulInto(tmp, w.Grad, st.qg)
		proj := mat.GetDense(rows, cols)
		mat.MulTAInto(proj, st.qa, tmp)
		mat.HadamardInto(proj, proj, proj)
		if !st.scaleInit {
			st.scale.CopyFrom(proj)
			st.scaleInit = true
		} else {
			st.scale.Scale(e.Decay).AddScaled(proj, 1-e.Decay)
		}
		mat.PutDense(tmp)
		mat.PutDense(proj)
	}
}

// Precondition implements opt.Preconditioner.
func (e *EKFAC) Precondition() {
	for i, l := range e.Layers {
		st := e.state[i]
		if st.qa == nil {
			continue
		}
		w := l.Weight()
		rows, cols := w.Grad.Dims()
		tmp := mat.GetDense(rows, cols)
		mat.MulInto(tmp, w.Grad, st.qg)
		proj := mat.GetDense(rows, cols)
		mat.MulTAInto(proj, st.qa, tmp)
		pd, sd := proj.Data(), st.scale.Data()
		for j := range pd {
			pd[j] /= sd[j] + e.Damping
		}
		mat.MulTBInto(tmp, proj, st.qg)
		mat.MulInto(w.Grad, st.qa, tmp)
		mat.PutDense(tmp)
		mat.PutDense(proj)
	}
}

// StateBytes implements opt.Preconditioner.
func (e *EKFAC) StateBytes() int {
	var n int
	for _, l := range e.Layers {
		dIn, dOut := l.Dims()
		n += 2*(dIn*dIn+dOut*dOut) + dIn*dOut
	}
	return n * 8
}
