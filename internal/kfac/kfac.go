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

	kron
	state []*kfacState
}

// factors is the Kronecker-factor state KFAC and EKFAC share: the running
// covariance estimates and the staging for each step's fresh factors.
type factors struct {
	// The running covariance estimates, nil until the first fold: a rank
	// that never folds a layer holds and checkpoints none.
	aFactor, gFactor *mat.Dense
	initialized      bool

	// Persistent staging for the freshly computed factors: the all-reduce
	// sums into them in place, so they are owned here, not pooled.
	faBuf, fgBuf *mat.Dense
}

// fits reports whether loaded factors fit a dIn×dOut layer: absent before
// the first fold, dIn×dIn and dOut×dOut after it.
func (f *factors) fits(dIn, dOut int) bool {
	return pairFits(f.aFactor, f.gFactor, dIn, dOut) && (f.aFactor != nil || !f.initialized)
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

// fold moves the running averages toward the all-reduced factors in
// faBuf and fgBuf; the first observation allocates and bootstraps them.
func (f *factors) fold(decay float64) {
	if !f.initialized {
		f.aFactor, f.gFactor = f.faBuf.Clone(), f.fgBuf.Clone()
		f.initialized = true
		return
	}
	f.aFactor.Scale(decay).AddScaled(f.faBuf, 1-decay)
	f.gFactor.Scale(decay).AddScaled(f.fgBuf, 1-decay)
}

// kron is the half of the Kronecker-factored schedule KFAC and EKFAC share:
// the skeleton and its first two stages over each layer's factors.
type kron struct {
	precond.Base
	fac []*factors // per kernel layer, inside the backend's own state
}

// init wires the skeleton with the factorize and reduce stages ahead of
// the backend's own and sizes fac for the backend to fill. KAISA's
// schedule: one layer's factor all-reduce is in flight while the next
// layer still computes its Gram factors.
func (k *kron) init(optimizer string, net *nn.Network, comm dist.Comm, timeline *dist.Timeline, apply func(layer int), tail ...sched.Stage) {
	k.Init(optimizer, net, comm, timeline, apply, append([]sched.Stage{
		{Name: "factorize", Fn: k.stageFactorize},
		{Name: "reduce", Comm: true, Fn: k.stageReduce},
	}, tail...))
	k.fac = make([]*factors, len(k.Layers))
}

// stageFactorize computes this step's factors, staged in persistent
// workspaces (KAISA step 2).
func (k *kron) stageFactorize(i int) {
	pl := &k.Plans[i]
	t0 := time.Now()
	k.fac[pl.Layer].gram(pl.A, pl.G, float64(pl.A.Rows()*k.Comm.Size()))
	k.Record(dist.PhaseFactorize, pl.Layer, t0)
}

// pairFits reports whether a layer's loaded pair of the matrices
// Precondition multiplies the gradient by is absent, as before the first
// refresh, or dIn×dIn and dOut×dOut.
func pairFits(a, g *mat.Dense, dIn, dOut int) bool {
	return a == nil && g == nil || mat.Shaped(a, dIn, dIn) && mat.Shaped(g, dOut, dOut)
}

// stageReduce all-reduces the factors in place (KAISA step 3).
func (k *kron) stageReduce(i int) {
	pl := &k.Plans[i]
	f := k.fac[pl.Layer]
	t0 := time.Now()
	k.Comm.AllReduceMat(f.faBuf)
	k.Comm.AllReduceMat(f.fgBuf)
	k.Record(dist.PhaseGather, pl.Layer, t0)
}

type kfacState struct {
	factors
	aInv, gInv *mat.Dense // what the last broadcast returned
	// The owner inverts into these and broadcasts them. Every transport
	// returns the root its own matrix and the other ranks a clone, and no
	// collective outlives its comm stage, so the next Update may overwrite
	// them.
	aBuf, gBuf *mat.Dense
}

// NewKFAC builds a KFAC preconditioner over the network's kernel layers.
// comm may be dist.Local() for single-process runs. timeline is optional.
func NewKFAC(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *KFAC {
	k := &KFAC{Damping: damping, Decay: 0.95}
	k.init("kfac", net, comm, timeline, k.stagePrecondition,
		sched.Stage{Name: "invert", Fn: k.stageInvert},
		sched.Stage{Name: "broadcast", Comm: true, Fn: k.stageBroadcast})
	k.state = make([]*kfacState, len(k.Layers))
	// The running Kronecker factors are exponential moving averages: one
	// post-restore batch cannot rebuild them, so losing them degrades the
	// curvature estimates for many update intervals. Under the
	// memory-optimized KAISA placement only a layer's owner folds them, so
	// only the owner allocates and saves them (a non-owner's section holds
	// none), which is why KFAC state lives in the per-rank sections. The
	// inverses are saved too: between update iterations Precondition
	// applies them, so a resumed step between refreshes must see the same
	// second-order state.
	k.State = mat.Fields{&k.Damping, uint32(len(k.Layers))}
	for i := range k.Layers {
		st := new(kfacState)
		k.state[i], k.fac[i] = st, &st.factors
		k.State = append(k.State, &st.initialized, &st.aFactor, &st.gFactor, &st.aInv, &st.gInv)
	}
	k.Fits = func(i, dIn, dOut int) bool {
		st := k.state[i]
		return st.fits(dIn, dOut) && pairFits(st.aInv, st.gInv, dIn, dOut)
	}
	return k
}

// Name implements opt.Preconditioner.
func (k *KFAC) Name() string { return "KFAC" }

// stageInvert folds the reduced factors into the running averages on the
// layer's owner, which alone holds them, and inverts both into aBuf and
// gBuf, with optional π damping split (KAISA step 4, the memory-optimal
// placement). A factor no damping stabilizes degrades to its diagonal
// (Jacobi) pseudo-inverse: the Kronecker product of diagonal inverses is
// still a usable (Adagrad-like) preconditioner.
func (k *KFAC) stageInvert(i int) {
	pl := &k.Plans[i]
	st := k.state[pl.Layer]
	if k.Comm.ID() != pl.Owner {
		// A non-owner holds no running factors, not even ones a checkpoint
		// from another placement brought in.
		st.aFactor, st.gFactor, st.initialized = nil, nil, false
		return
	}
	st.fold(k.Decay)
	t0 := time.Now()
	dIn, dOut := k.Layers[pl.Layer].Dims()
	gA, gG := math.Sqrt(k.Damping), math.Sqrt(k.Damping)
	if k.PiCorrection {
		gA, gG = piCorrection(st.aFactor.Trace(), dIn, st.gFactor.Trace(), dOut, k.Damping)
	}
	st.aBuf = mat.EnsureDense(st.aBuf, dIn, dIn)
	st.gBuf = mat.EnsureDense(st.gBuf, dOut, dOut)
	precond.InvertSPD(st.aBuf, st.aFactor, gA, "kfac.A", numerics.RungDiagonal, mat.DiagInvDamped)
	precond.InvertSPD(st.gBuf, st.gFactor, gG, "kfac.G", numerics.RungDiagonal, mat.DiagInvDamped)
	k.Record(dist.PhaseInvert, pl.Layer, t0)
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

// stageBroadcast broadcasts the owner's inverses (KAISA step 5) and
// installs them.
func (k *KFAC) stageBroadcast(i int) {
	pl := &k.Plans[i]
	st := k.state[pl.Layer]
	t0 := time.Now()
	st.aInv = k.Broadcast(pl, st.aBuf)
	st.gInv = k.Broadcast(pl, st.gBuf)
	k.Record(dist.PhaseBroadcast, pl.Layer, t0)
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

// EKFAC refines KFAC by diagonally rescaling in the Kronecker eigenbasis:
// the factors are eigendecomposed and the per-coordinate curvature scale
// is tracked as a running average of the squared gradient projected into
// that basis (George et al., 2018).
type EKFAC struct {
	Damping float64
	Decay   float64

	kron
	state []*ekfacState
}

type ekfacState struct {
	factors
	qa, qg    *mat.Dense // eigenbases
	scale     *mat.Dense // running E[(Qaᵀ g Qg)²], dIn×dOut
	scaleInit bool
}

// NewEKFAC builds an EKFAC preconditioner on KFAC's factorize and reduce
// stages. Its own stages eigendecompose the running factors on the layer's
// owner, broadcast the two eigenbases, and refresh the diagonal scale from
// the live gradient projected into them.
func NewEKFAC(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *EKFAC {
	e := &EKFAC{Damping: damping, Decay: 0.95}
	e.init("ekfac", net, comm, timeline, e.stagePrecondition,
		sched.Stage{Name: "eig", Fn: e.stageEig},
		sched.Stage{Name: "broadcast", Comm: true, Fn: e.stageBroadcast},
		sched.Stage{Name: "rescale", Fn: e.stageRescale})
	e.state = make([]*ekfacState, len(e.Layers))
	// As KFAC's, the running factors and the diagonal scale are
	// exponential averages no post-restore batch rebuilds; the eigenbases
	// are what Precondition applies between refreshes.
	e.State = mat.Fields{uint32(len(e.Layers))}
	for i, l := range e.Layers {
		st := &ekfacState{scale: mat.NewDense(l.Dims())}
		e.state[i], e.fac[i] = st, &st.factors
		e.State = append(e.State, &st.initialized, &st.aFactor, &st.gFactor, &st.qa, &st.qg, st.scale, &st.scaleInit)
	}
	e.Fits = func(i, dIn, dOut int) bool {
		st := e.state[i]
		return st.fits(dIn, dOut) && pairFits(st.qa, st.qg, dIn, dOut)
	}
	return e
}

// Name implements opt.Preconditioner.
func (e *EKFAC) Name() string { return "EKFAC" }

// stageEig folds the reduced factors into the running averages, which
// every rank keeps, and eigendecomposes them on the layer's owner (the
// expensive step EKFAC adds over KFAC), into the eigenbases it keeps.
func (e *EKFAC) stageEig(i int) {
	pl := &e.Plans[i]
	st := e.state[pl.Layer]
	st.fold(e.Decay)
	if e.Comm.ID() != pl.Owner {
		return
	}
	t0 := time.Now()
	st.qa = mat.SymEigInto(st.qa, nil, st.aFactor)
	st.qg = mat.SymEigInto(st.qg, nil, st.gFactor)
	e.Record(dist.PhaseInvert, pl.Layer, t0)
}

// stageBroadcast broadcasts the owner's eigenbases and installs them.
func (e *EKFAC) stageBroadcast(i int) {
	pl := &e.Plans[i]
	st := e.state[pl.Layer]
	t0 := time.Now()
	st.qa = e.Broadcast(pl, st.qa)
	st.qg = e.Broadcast(pl, st.qg)
	e.Record(dist.PhaseBroadcast, pl.Layer, t0)
}

// project returns Qaᵀ·grad·Qg in pooled proj, and the pooled tmp it used.
func (st *ekfacState) project(grad *mat.Dense) (tmp, proj *mat.Dense) {
	rows, cols := grad.Dims()
	tmp = mat.GetDense(rows, cols)
	mat.MulInto(tmp, grad, st.qg)
	proj = mat.GetDense(rows, cols)
	mat.MulTAInto(proj, st.qa, tmp)
	return tmp, proj
}

// stageRescale refreshes the diagonal scale from the current gradient
// projected into the eigenbasis (sq = proj∘proj in place).
func (e *EKFAC) stageRescale(i int) {
	layer := e.Plans[i].Layer
	st := e.state[layer]
	tmp, proj := st.project(e.Layers[layer].Weight().Grad)
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

// stagePrecondition is one layer of Precondition: grad ← Qa·(Qaᵀ grad Qg ⊘
// (scale + γ))·Qgᵀ.
func (e *EKFAC) stagePrecondition(i int) {
	st := e.state[i]
	if st.qa == nil {
		return
	}
	w := e.Layers[i].Weight()
	tmp, proj := st.project(w.Grad)
	pd, sd := proj.Data(), st.scale.Data()
	for j := range pd {
		pd[j] /= sd[j] + e.Damping
	}
	mat.MulTBInto(tmp, proj, st.qg)
	mat.MulInto(w.Grad, st.qa, tmp)
	mat.PutDense(tmp)
	mat.PutDense(proj)
}
