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
}

type sngdState struct {
	// Kernel holds the gathered global factors (normalized) and, as M, the
	// explicit kernel inverse.
	precond.Kernel

	// Normalized local factor copies, reused across iterations (handed to
	// the communicator, so owned here rather than pooled).
	an, gn         *mat.Dense
	aParts, gParts []*mat.Dense // this step's gathered blocks
}

// New builds an SNGD preconditioner over the network's kernel layers.
func New(net *nn.Network, damping float64, comm dist.Comm, timeline *dist.Timeline) *SNGD {
	s := &SNGD{Damping: damping}
	// Fig. 1's schedule: one layer's gather is in flight while the next
	// layer still normalizes or a previous owner still inverts.
	s.Init("sngd", net, comm, timeline, s.stagePrecondition, []sched.Stage{
		{Name: "normalize", Fn: s.stageNormalize},
		{Name: "gather", Comm: true, Fn: s.stageGather},
		{Name: "invert", Fn: s.stageInvert},
		{Name: "broadcast", Comm: true, Fn: s.stageBroadcast},
	})
	s.state = make([]*sngdState, len(s.Layers))
	// Between update iterations Precondition applies each layer's Kernel,
	// so a resumed step between refreshes must see the same one. The
	// layer's dims guard the section; Check, the factors a load replaces.
	s.State = mat.Fields{uint32(len(s.Layers))}
	for i, l := range s.Layers {
		st := &sngdState{}
		s.state[i] = st
		dIn, dOut := l.Dims()
		s.State = append(s.State, uint32(dIn), uint32(dOut), &st.As, &st.Gs, &st.M)
	}
	s.Fits = func(i, dIn, dOut int) bool { return s.state[i].Fits(dIn, dOut) }
	return s
}

// Name implements opt.Preconditioner.
func (s *SNGD) Name() string { return "SNGD" }

// stageNormalize scales this step's captures so the kernel represents the
// mean Fisher: both factors by mGlob^(-1/4) scales K by 1/mGlob and U by
// 1/√mGlob.
func (s *SNGD) stageNormalize(i int) {
	pl := &s.Plans[i]
	st := s.state[pl.Layer]
	scale := math.Pow(float64(pl.A.Rows()*s.Comm.Size()), -0.25)
	st.an = mat.EnsureDense(st.an, pl.A.Rows(), pl.A.Cols())
	st.an.CopyFrom(pl.A)
	st.an.Scale(scale)
	st.gn = mat.EnsureDense(st.gn, pl.G.Rows(), pl.G.Cols())
	st.gn.CopyFrom(pl.G)
	st.gn.Scale(scale)
}

// stageGather all-gathers the normalized factors (Fig. 1 step 2).
func (s *SNGD) stageGather(i int) {
	pl := &s.Plans[i]
	st := s.state[pl.Layer]
	t0 := time.Now()
	st.aParts = s.Comm.AllGatherMat(st.an)
	st.gParts = s.Comm.AllGatherMat(st.gn)
	s.Record(dist.PhaseGather, pl.Layer, t0)
}

// stageInvert assembles the global factors and, on the owning worker,
// inverts the global kernel into M.
func (s *SNGD) stageInvert(i int) {
	pl := &s.Plans[i]
	st := s.state[pl.Layer]
	st.Stack(st.aParts, st.gParts)
	if s.Comm.ID() != pl.Owner {
		return
	}
	t0 := time.Now()
	mg := st.As.Rows()
	k := mat.GetDense(mg, mg)
	mat.KernelMatrixInto(k, st.As, st.Gs)
	k.AddDiag(s.Damping)
	st.M = precond.InvertSPD(nil, k, 0, "sngd.kernel", numerics.RungIdentity, precond.Zero)
	mat.PutDense(k)
	s.Record(dist.PhaseInvert, pl.Layer, t0)
}

// stageBroadcast broadcasts the owner's inverted kernel (Fig. 1 step 4)
// and installs it.
func (s *SNGD) stageBroadcast(i int) {
	pl := &s.Plans[i]
	st := s.state[pl.Layer]
	t0 := time.Now()
	st.M = s.Broadcast(pl, st.M)
	s.Record(dist.PhaseBroadcast, pl.Layer, t0)
}

// stagePrecondition is one layer of Precondition: Eq. (7) applied through
// the Khatri-Rao structure, with z = K⁻¹y by the broadcast inverse.
func (s *SNGD) stagePrecondition(i int) {
	s.state[i].Apply(s.Layers[i].Weight().Grad.Data(), s.Damping)
}
