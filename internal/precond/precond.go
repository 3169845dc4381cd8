// Package precond is the skeleton every second-order preconditioner in
// this repository stands on (HyLo, KFAC/EKFAC, SNGD, KBFGS-L): the parts of
// Fig. 1's schedule (local factors → gather/reduce → owner inverts →
// broadcast) and of the update (1/α)(g − UˢᵀMUˢg) of Eqs. 7–9 that do not
// depend on a method's math. A backend embeds Base, hands Init its
// per-layer stage functions, and keeps only its own state.
package precond

import (
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Base is the layer-pipeline plumbing: the kernel layers, the communicator
// and its async wrapper, the Update and Precondition engines, and the phase
// recorder. It holds scheduler engines, so it must not be copied after
// Init.
type Base struct {
	Layers []nn.KernelLayer
	Comm   dist.Comm
	Async  *dist.AsyncComm
	// Stages is the per-layer Update pipeline RunUpdate executes. Its
	// functions index the backend's own per-update plan slice.
	Stages []sched.Stage

	optimizer string
	timeline  *dist.Timeline
	apply     [1]sched.Stage
	updEng    sched.Engine
	precEng   sched.Engine
}

// Init wires the skeleton over net's kernel layers. optimizer is the span
// label; timeline may be nil; apply is the per-layer Precondition body and
// update the per-layer Update pipeline (both nil for a backend that keeps
// its own sequential loops).
func (b *Base) Init(optimizer string, net *nn.Network, comm dist.Comm, timeline *dist.Timeline, apply func(layer int), update []sched.Stage) {
	b.Layers, b.Comm, b.Async = net.KernelLayers(), comm, dist.Async(comm)
	b.optimizer, b.timeline = optimizer, timeline
	b.Stages = update
	b.apply[0] = sched.Stage{Name: "precondition", Fn: apply}
}

// RunUpdate executes Stages over n per-layer plans.
func (b *Base) RunUpdate(n int) { sched.Run(&b.updEng, n, b.Stages) }

// Precondition implements opt.Preconditioner for every backend whose
// layers precondition independently (per-layer state, per-layer gradients,
// no collectives): one compute stage over all kernel layers.
func (b *Base) Precondition() { sched.Run(&b.precEng, len(b.Layers), b.apply[:]) }

// Record closes out one schedule phase for one layer, timed from start.
func (b *Base) Record(phase string, layer int, start time.Time, mode ...string) {
	b.RecordDur(phase, layer, time.Since(start), mode...)
}

// RecordDur is Record for a duration measured elsewhere — collective
// futures report their own execution time, which is what the communication
// buckets should hold rather than the near-zero submission time. The
// rank-0 Timeline keeps the Fig. 7 four-bucket totals; when telemetry is on
// every rank also emits a span labelled optimizer, layer and (HyLo) mode.
func (b *Base) RecordDur(phase string, layer int, dur time.Duration, mode ...string) {
	if b.timeline != nil && b.Comm.ID() == 0 {
		b.timeline.Add(phase, dur.Seconds())
	}
	if !telemetry.Enabled() {
		return
	}
	labels := make([]telemetry.Label, 0, 3)
	labels = append(labels, telemetry.Label{Key: "optimizer", Value: b.optimizer})
	if len(mode) > 0 {
		labels = append(labels, telemetry.Label{Key: "mode", Value: mode[0]})
	}
	labels = append(labels, telemetry.Label{Key: "layer", Value: strconv.Itoa(layer)})
	telemetry.RecordSpan(phase, b.Comm.ID(), dur, labels...)
}

// Kernel is one layer's Sherman-Morrison-Woodbury state: the gathered
// (normalized) factors As, Gs with U = As ⊙ Gs, and the middle matrix M of
// (1/α)(g − UᵀMUg). The methods differ only in how the three are built.
type Kernel struct {
	As, Gs, M *mat.Dense

	y, z, corr []float64 // Apply scratch
}

// Stack assembles the gathered per-worker factor blocks into As and Gs,
// reusing their storage.
func (k *Kernel) Stack(aParts, gParts []*mat.Dense) {
	k.As = vstackInto(k.As, aParts)
	k.Gs = vstackInto(k.Gs, gParts)
}

func vstackInto(dst *mat.Dense, parts []*mat.Dense) *mat.Dense {
	rows := 0
	for _, p := range parts {
		rows += p.Rows()
	}
	dst = mat.EnsureDense(dst, rows, parts[0].Cols())
	mat.VStackInto(dst, parts...)
	return dst
}

// Apply overwrites grad with (1/α)(g − UᵀMUg) through the Khatri-Rao
// structure (no dIn·dOut-square matrix is formed); a Kernel with no M yet
// leaves grad alone.
func (k *Kernel) Apply(grad []float64, alpha float64) {
	if k.M == nil {
		return
	}
	k.y = mat.EnsureFloats(k.y, k.As.Rows())
	mat.KhatriRaoApplyInto(k.y, k.As, k.Gs, grad)
	k.z = mat.EnsureFloats(k.z, k.M.Rows())
	mat.MulVecInto(k.z, k.M, k.y)
	k.corr = mat.EnsureFloats(k.corr, len(grad))
	mat.KhatriRaoApplyTInto(k.corr, k.As, k.Gs, k.z)
	inv := 1 / alpha
	for j, c := range k.corr {
		grad[j] = inv * (grad[j] - c)
	}
}

// Bytes is the state held between updates: As, Gs and M.
func (k *Kernel) Bytes() int {
	n := 0
	for _, m := range []*mat.Dense{k.As, k.Gs, k.M} {
		if m != nil {
			n += m.Rows() * m.Cols()
		}
	}
	return n * 8
}

// KernelState is a Kernel's checkpoint form.
type KernelState struct {
	As, Gs, M mat.DenseState
}

// Capture snapshots As, Gs and M (the scratch is rebuilt on demand).
func (k *Kernel) Capture() KernelState {
	return KernelState{As: mat.CaptureDense(k.As), Gs: mat.CaptureDense(k.Gs), M: mat.CaptureDense(k.M)}
}

// Restore installs a snapshot taken by Capture.
func (k *Kernel) Restore(s KernelState) {
	k.As, k.Gs, k.M = s.As.Restore(), s.Gs.Restore(), s.M.Restore()
}

// InvertSPD returns (k + γI)⁻¹ with the bookkeeping every damped inverse in
// the optimizers needs: bounded Levenberg-Marquardt escalation, retries
// counted under site, and — when no damping stabilizes the solve or the
// result is not finite — rung recorded once under site and fallback(k, γ)
// returned in its place. The fallback has k's shape, so a broadcast of the
// result stays matched across workers whichever way it went.
func InvertSPD(k *mat.Dense, gamma float64, site string, rung numerics.Rung, fallback func(k *mat.Dense, gamma float64) *mat.Dense) *mat.Dense {
	inv, _, retries, _, err := mat.InvSPDDampedChecked(k, gamma)
	numerics.AddRetries(site, retries)
	if err == nil && inv.IsFinite() {
		return inv
	}
	reason := "damped inverse not finite"
	if err != nil {
		reason = err.Error()
	}
	numerics.RecordFallback(site, rung, reason)
	return fallback(k, gamma)
}

// Zero is the InvertSPD fallback of the kernel methods: M = 0 makes the
// correction vanish, so the update degrades to the plain g/α step.
func Zero(k *mat.Dense, _ float64) *mat.Dense { return mat.NewDense(k.Rows(), k.Cols()) }
