// Package sngd implements the standard Sherman-Morrison-Woodbury natural
// gradient method (Eq. 7 of the paper) with the communication-optimized
// distributed schedule of Fig. 1: per-worker factors are all-gathered to
// form the global-batch kernel matrix, the owning worker inverts it, and
// the inverse action is applied through the Khatri-Rao structure without
// materializing the Jacobian.
package sngd

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

// SNGD preconditions gradients with
//
//	(F + αI)⁻¹ g = (1/α) [ g − Uᵀ (A Aᵀ ∘ G Gᵀ + αI)⁻¹ U g ],
//
// where A and G are the global-batch per-sample factors (gathered over all
// workers) and U = A ⊙ G. The kernel has the global batch dimension Pm, so
// the inversion cost grows cubically with scale — the limitation HyLo
// removes.
type SNGD struct {
	// Damping is α.
	Damping float64

	precond.Base
	state []*sngdState
	plans []sngdPlan // per-layer pipeline slots of the current Update
}

type sngdState struct {
	// Kernel holds the gathered global factors (normalized) and, as M, the
	// explicit kernel inverse.
	precond.Kernel

	// Normalized local factor copies, reused across iterations (handed to
	// the communicator, so owned here rather than pooled).
	an, gn *mat.Dense
}

// sngdPlan is one layer's slot in the scheduled pipeline; it persists
// across updates so the embedded futures are reused allocation-free.
type sngdPlan struct {
	layer, owner int
	st           *sngdState
	a, g         *mat.Dense // this step's captures
	scale        float64

	aF, gF         dist.GatherFuture
	aParts, gParts []*mat.Dense
	m              *mat.Dense // owner's result; nil off-owner
	mF             dist.MatFuture
}

// New builds an SNGD preconditioner over the network's kernel layers.
func New(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *SNGD {
	s := &SNGD{Damping: damping}
	// Fig. 1's schedule: one layer's gather is in flight while the next
	// layer still normalizes or a previous owner still inverts.
	s.Init("sngd", net, comm, timeline, s.stagePrecondition, []sched.Stage{
		{Name: "normalize", Fn: s.stageNormalize},
		{Name: "gather", Comm: true, Fn: s.stageGather},
		{Name: "invert", Wait: s.waitGather, Fn: s.stageInvert},
		{Name: "broadcast", Comm: true, Fn: s.stageBroadcast},
		{Name: "store", Wait: s.waitBroadcast, Fn: s.stageStore},
	})
	s.state = make([]*sngdState, len(s.Layers))
	for i := range s.state {
		s.state[i] = &sngdState{}
	}
	return s
}

// Name implements opt.Preconditioner.
func (s *SNGD) Name() string { return "SNGD" }

// Update implements opt.Preconditioner: gather per-worker factors, build
// and invert the global kernel on the owning worker, broadcast.
func (s *SNGD) Update() {
	p := s.Comm.Size()
	s.plans = s.plans[:0]
	for i, l := range s.Layers {
		a, g := l.Capture()
		if a == nil {
			continue
		}
		mGlob := a.Rows() * p
		// Normalize so the kernel represents the mean Fisher: scaling both
		// factors by mGlob^(-1/4) scales K by 1/mGlob and U by 1/√mGlob.
		scale := math.Pow(float64(mGlob), -0.25)
		s.plans = append(s.plans, sngdPlan{
			layer: i, owner: i % p, st: s.state[i], a: a, g: g, scale: scale,
		})
	}
	s.RunUpdate(len(s.plans))
}

func (s *SNGD) stageNormalize(i int) {
	pl := &s.plans[i]
	st := pl.st
	st.an = mat.EnsureDense(st.an, pl.a.Rows(), pl.a.Cols())
	st.an.CopyFrom(pl.a)
	st.an.Scale(pl.scale)
	st.gn = mat.EnsureDense(st.gn, pl.g.Rows(), pl.g.Cols())
	st.gn.CopyFrom(pl.g)
	st.gn.Scale(pl.scale)
}

// stageGather submits the factor all-gathers (Fig. 1 step 2).
func (s *SNGD) stageGather(i int) {
	pl := &s.plans[i]
	s.Async.StartAllGatherMat(&pl.aF, pl.st.an)
	s.Async.StartAllGatherMat(&pl.gF, pl.st.gn)
}

func (s *SNGD) waitGather(i int) {
	pl := &s.plans[i]
	pl.aParts = pl.aF.Wait()
	pl.gParts = pl.gF.Wait()
}

// stageInvert assembles the global factors and, on the owning worker,
// inverts the global kernel.
func (s *SNGD) stageInvert(i int) {
	pl := &s.plans[i]
	st := pl.st
	s.RecordDur(dist.PhaseGather, pl.layer, pl.aF.Dur()+pl.gF.Dur())
	st.Stack(pl.aParts, pl.gParts)
	pl.m = nil
	if s.Comm.ID() != pl.owner {
		return
	}
	t0 := time.Now()
	mg := st.As.Rows()
	k := mat.GetDense(mg, mg)
	mat.KernelMatrixInto(k, st.As, st.Gs)
	k.AddDiag(s.Damping)
	pl.m = precond.InvertSPD(k, 0, "sngd.kernel", numerics.RungIdentity, precond.Zero)
	mat.PutDense(k)
	s.Record(dist.PhaseInvert, pl.layer, t0)
}

// stageBroadcast submits the inverted-kernel broadcast (Fig. 1 step 4).
func (s *SNGD) stageBroadcast(i int) {
	pl := &s.plans[i]
	s.Async.StartBroadcastMat(&pl.mF, pl.owner, pl.m)
}

func (s *SNGD) waitBroadcast(i int) {
	pl := &s.plans[i]
	pl.st.M = pl.mF.Wait()
}

func (s *SNGD) stageStore(i int) {
	pl := &s.plans[i]
	s.RecordDur(dist.PhaseBroadcast, pl.layer, pl.mF.Dur())
}

// stagePrecondition is one layer of Precondition: Eq. (7) applied through
// the Khatri-Rao structure, with z = K⁻¹y by the broadcast inverse.
func (s *SNGD) stagePrecondition(i int) {
	s.state[i].Apply(s.Layers[i].Weight().Grad.Data(), s.Damping)
}

// StateBytes implements opt.Preconditioner: the gathered global factors
// plus the Pm×Pm kernel inverse per layer — Table I's
// O(Pmd + P²m² + d²) storage row.
func (s *SNGD) StateBytes() int {
	var n int
	for _, st := range s.state {
		n += st.Bytes()
	}
	return n
}
