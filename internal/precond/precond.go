// Package precond is the skeleton every second-order preconditioner in
// this repository stands on (HyLo, KFAC/EKFAC, SNGD, KBFGS-L): the parts of
// Fig. 1's schedule (local factors → gather/reduce → owner inverts →
// broadcast) and of the update (1/α)(g − UˢᵀMUˢg) of Eqs. 7–9 that do not
// depend on a method's math. A backend embeds Base, hands Init its
// per-layer stage functions, lists its checkpoint state in State, inherits
// Update, Precondition and the checkpoint saver, and keeps only its own
// state.
package precond

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Base is the layer-pipeline plumbing: the kernel layers, the communicator,
// the Update and Precondition engines, the phase recorder and the
// checkpoint saver. It holds scheduler engines, so it must not be copied
// after Init.
type Base struct {
	Layers []nn.KernelLayer
	Comm   dist.Comm
	// Stages is the per-layer Update pipeline. Its functions index Plans.
	Stages []sched.Stage
	// Plans holds the current Update's captured layers in layer order,
	// reused across updates.
	Plans []Plan
	// Section is the checkpoint, keyed "precond/" and the span label. Its
	// State is everything a restore must bring back for the resumed run to
	// precondition as the uninterrupted one would have; the backend lists
	// it once its per-layer state exists.
	mat.Section
	// Fits, set beside State, reports whether layer i's loaded state fits
	// its dIn×dOut weight; the section's Check asks it of every layer.
	Fits func(i, dIn, dOut int) bool

	optimizer string
	timeline  *dist.Timeline
	apply     [1]sched.Stage
	updEng    sched.Engine
	precEng   sched.Engine
}

// checkLayers is the section's Check: every layer's state must fit.
func (b *Base) checkLayers() error {
	for i, l := range b.Layers {
		if dIn, dOut := l.Dims(); !b.Fits(i, dIn, dOut) {
			return fmt.Errorf("precond: %s layer %d's state does not fit its %d×%d weight", b.optimizer, i, dIn, dOut)
		}
	}
	return nil
}

// Plan is one captured layer of an Update: its index, the rank that owns
// its inversion (layer % P, round-robin), and this step's captures.
type Plan struct {
	Layer, Owner int
	A, G         *mat.Dense
}

// Init wires the skeleton over net's kernel layers. optimizer is the span
// label; timeline may be nil; apply is the per-layer Precondition body and
// update the per-layer Update pipeline.
func (b *Base) Init(optimizer string, net *nn.Network, comm dist.Comm, timeline *dist.Timeline, apply func(layer int), update []sched.Stage) {
	b.Layers, b.Comm = net.KernelLayers(), comm
	b.optimizer, b.Key, b.Check, b.timeline = optimizer, "precond/"+optimizer, b.checkLayers, timeline
	b.Stages = update
	b.apply[0] = sched.Stage{Name: "precondition", Fn: apply}
}

// Capture fills Plans from the kernel layers' latest captures, skipping a
// layer with none.
func (b *Base) Capture() {
	p := b.Comm.Size()
	b.Plans = b.Plans[:0]
	for i, l := range b.Layers {
		if a, g := l.Capture(); a != nil {
			b.Plans = append(b.Plans, Plan{Layer: i, Owner: i % p, A: a, G: g})
		}
	}
}

// RunUpdate executes Stages over n per-layer plans.
func (b *Base) RunUpdate(n int) { sched.Run(&b.updEng, n, b.Stages) }

// Update implements opt.Preconditioner: Fig. 1's schedule, Stages, over
// every captured layer.
func (b *Base) Update() {
	b.Capture()
	b.RunUpdate(len(b.Plans))
}

// Broadcast sends m from pl's owner to every rank and returns what
// arrived; the other ranks pass nil, whatever m they hold. Call it from a
// comm stage.
func (b *Base) Broadcast(pl *Plan, m *mat.Dense) *mat.Dense {
	if b.Comm.ID() != pl.Owner {
		m = nil
	}
	return b.Comm.BroadcastMat(pl.Owner, m)
}

// Precondition implements opt.Preconditioner for every backend whose
// layers precondition independently (per-layer state, per-layer gradients,
// no collectives): one compute stage over all kernel layers.
func (b *Base) Precondition() { sched.Run(&b.precEng, len(b.Layers), b.apply[:]) }

// Record closes out one schedule phase for one layer, timed from start; a
// comm stage times its own blocking collectives. The rank-0 Timeline keeps
// the Fig. 7 four-bucket totals; when telemetry is on every rank also
// emits a span labelled optimizer, layer and (HyLo) mode.
func (b *Base) Record(phase string, layer int, start time.Time, mode ...string) {
	dur := time.Since(start)
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

// Fits reports whether Apply can use the Kernel on a dIn×dOut layer: no M
// yet, or a square M with both factors of its rank and the layer's widths.
func (k *Kernel) Fits(dIn, dOut int) bool {
	return k.M == nil || mat.Shaped(k.M, k.M.Rows(), k.M.Rows()) &&
		mat.Shaped(k.As, k.M.Rows(), dIn) && mat.Shaped(k.Gs, k.M.Rows(), dOut)
}

// InvertSPD returns (k + γI)⁻¹ with the bookkeeping every damped inverse in
// the optimizers needs: bounded Levenberg-Marquardt escalation, retries
// counted under site, and — when no damping stabilizes the solve or the
// result is not finite — rung recorded once under site and fallback(k, γ)
// returned in its place. The fallback has k's shape, so a broadcast of the
// result stays matched across workers whichever way it went. With a dst
// (k's shape, not aliasing it) the result, fallback included, is written
// there and dst returned; with nil it is a new matrix.
func InvertSPD(dst, k *mat.Dense, gamma float64, site string, rung numerics.Rung, fallback func(k *mat.Dense, gamma float64) *mat.Dense) *mat.Dense {
	inv, _, retries, _, err := mat.InvSPDDampedChecked(dst, k, gamma)
	numerics.AddRetries(site, retries)
	if err == nil && inv.IsFinite() {
		return inv
	}
	reason := "damped inverse not finite"
	if err != nil {
		reason = err.Error()
	}
	numerics.RecordFallback(site, rung, reason)
	fb := fallback(k, gamma)
	if dst == nil {
		return fb
	}
	dst.CopyFrom(fb)
	return dst
}

// Zero is the InvertSPD fallback of the kernel methods: M = 0 makes the
// correction vanish, so the update degrades to the plain g/α step.
func Zero(k *mat.Dense, _ float64) *mat.Dense { return mat.NewDense(k.Rows(), k.Cols()) }
