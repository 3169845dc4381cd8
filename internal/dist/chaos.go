package dist

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// FaultPlan schedules deterministic fault injection for chaos testing.
// All randomness derives from Seed (rank-offset), so a given plan produces
// the identical fault sequence on every run — failures are reproducible,
// which is what makes recovery bugs debuggable.
type FaultPlan struct {
	// Seed drives the bit-flip and straggler draws (rank-offset).
	Seed uint64
	// PanicRank worker panics when it enters training step PanicStep
	// (once per run). PanicStep < 0 disables panic injection.
	PanicRank int
	PanicStep int
	// BitFlipProb is the per-collective probability that one mantissa bit
	// of one payload element is flipped before the exchange — simulating
	// silent in-flight corruption. 0 disables.
	BitFlipProb float64
	// StragglerProb delays a collective by StragglerDelay with this
	// probability — simulating transient slow links/workers. 0 disables.
	StragglerProb  float64
	StragglerDelay time.Duration
	// DegenerateKind replaces gathered factor payloads with numerically
	// degenerate ones, exercising the solver degradation ladder:
	// "dup" duplicates row 0 into every row (rank-1 kernel), "zero" zeroes
	// the payload (vanished gradients), "huge" scales it by 1e150 (kernel
	// entries overflow). Applied with probability DegenerateProb per
	// all-gather; empty disables.
	DegenerateKind string
	// DegenerateProb is the per-collective injection probability for
	// DegenerateKind.
	DegenerateProb float64
}

// Enabled reports whether the plan injects anything at all.
func (p FaultPlan) Enabled() bool {
	return p.PanicStep >= 0 || p.BitFlipProb > 0 || (p.StragglerProb > 0 && p.StragglerDelay > 0) ||
		(p.DegenerateKind != "" && p.DegenerateProb > 0)
}

// InjectedFault is the panic value delivered by scheduled worker-death
// injection; the elastic driver recognizes it to count recoveries.
type InjectedFault struct {
	Rank int
	Step int
}

// Error implements error.
func (f InjectedFault) Error() string {
	return fmt.Sprintf("dist: injected fault on rank %d at step %d", f.Rank, f.Step)
}

// FaultInjector wraps a Comm and injects the faults scheduled by a
// FaultPlan: worker panics at a training step, payload bit-flips, and
// straggler delays on collectives. The trainer reports step boundaries via
// OnStep (see Stepper); collectives delegate to the wrapped Comm after the
// chaos draws.
type FaultInjector struct {
	inner Comm
	plan  FaultPlan
	rng   *mat.RNG
	fired bool
}

// NewFaultInjector wraps inner with the plan's fault schedule.
func NewFaultInjector(inner Comm, plan FaultPlan) *FaultInjector {
	return &FaultInjector{
		inner: inner,
		plan:  plan,
		rng:   mat.NewRNG(plan.Seed + 1315423911*uint64(inner.ID()) + 1),
	}
}

// Stepper is implemented by Comm wrappers that want to observe training
// step boundaries (the fault injector schedules worker deaths on them).
type Stepper interface {
	OnStep(step int)
}

// OnStep implements Stepper: delivers the scheduled panic when this rank
// enters the scheduled step. The panic is one-shot per injector; the
// elastic driver clears the plan across restarts so a recovered run does
// not re-die at the same step.
func (f *FaultInjector) OnStep(step int) {
	if f.fired || f.plan.PanicStep < 0 || step != f.plan.PanicStep || f.inner.ID() != f.plan.PanicRank {
		return
	}
	f.fired = true
	fault := InjectedFault{Rank: f.inner.ID(), Step: step}
	telemetry.IncCounter(telemetry.MetricFaultsInjected, 1,
		telemetry.Label{Key: "kind", Value: "panic"})
	panic(fault)
}

// Unwrap returns the wrapped Comm (used by AsBarrier and AsByteGatherer).
func (f *FaultInjector) Unwrap() Comm { return f.inner }

// maybeDelay sleeps the straggler delay per the plan's draw.
func (f *FaultInjector) maybeDelay() {
	if f.plan.StragglerProb <= 0 || f.plan.StragglerDelay <= 0 {
		return
	}
	if f.rng.Float64() < f.plan.StragglerProb {
		telemetry.IncCounter(telemetry.MetricFaultsInjected, 1,
			telemetry.Label{Key: "kind", Value: "delay"})
		time.Sleep(f.plan.StragglerDelay)
	}
}

// maybeFlip returns m or a copy with one random mantissa bit flipped in
// one random element. The input is never mutated — the caller's gradient
// buffers stay clean; only the exchanged payload is corrupted.
func (f *FaultInjector) maybeFlip(m *mat.Dense) *mat.Dense {
	if f.plan.BitFlipProb <= 0 || f.rng.Float64() >= f.plan.BitFlipProb {
		return m
	}
	n := m.Rows() * m.Cols()
	if n == 0 {
		return m
	}
	out := m.Clone()
	d := out.Data()
	i := f.rng.Intn(n)
	bit := uint(f.rng.Intn(52)) // mantissa bits only: corrupt values, not NaN-bomb
	d[i] = math.Float64frombits(math.Float64bits(d[i]) ^ (1 << bit))
	telemetry.IncCounter(telemetry.MetricFaultsInjected, 1,
		telemetry.Label{Key: "kind", Value: "bitflip"})
	return out
}

// maybeDegenerate returns m or a degenerate copy per the plan's draw: a
// duplicated-row payload (collapses the kernel to numerical rank 1), a
// zero payload, or a hugely scaled one (kernel entries overflow to ±Inf).
// The caller's buffers are never mutated — only the exchanged payload.
func (f *FaultInjector) maybeDegenerate(m *mat.Dense) *mat.Dense {
	if f.plan.DegenerateKind == "" || f.plan.DegenerateProb <= 0 ||
		f.rng.Float64() >= f.plan.DegenerateProb {
		return m
	}
	if m.Rows() == 0 || m.Cols() == 0 {
		return m
	}
	out := m.Clone()
	switch f.plan.DegenerateKind {
	case "dup":
		r0 := out.Row(0)
		for i := 1; i < out.Rows(); i++ {
			copy(out.Row(i), r0)
		}
	case "zero":
		out.Zero()
	case "huge":
		out.Scale(1e150)
	default:
		return m
	}
	telemetry.IncCounter(telemetry.MetricFaultsInjected, 1,
		telemetry.Label{Key: "kind", Value: "degenerate-" + f.plan.DegenerateKind})
	return out
}

// Size implements Comm.
func (f *FaultInjector) Size() int { return f.inner.Size() }

// ID implements Comm.
func (f *FaultInjector) ID() int { return f.inner.ID() }

// AllGatherMat implements Comm with chaos injection. Degenerate-payload
// injection targets the factor gathers specifically: they are the inputs to
// the reduced kernel solves, so this is the path that exercises the
// numerical degradation ladder end-to-end.
func (f *FaultInjector) AllGatherMat(m *mat.Dense) []*mat.Dense {
	f.maybeDelay()
	return f.inner.AllGatherMat(f.maybeFlip(f.maybeDegenerate(m)))
}

// AllReduceMat implements Comm with chaos injection.
func (f *FaultInjector) AllReduceMat(m *mat.Dense) *mat.Dense {
	f.maybeDelay()
	return f.inner.AllReduceMat(f.maybeFlip(m))
}

// BroadcastMat implements Comm with chaos injection (root payload only).
func (f *FaultInjector) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	f.maybeDelay()
	if f.inner.ID() == root && m != nil {
		m = f.maybeFlip(m)
	}
	return f.inner.BroadcastMat(root, m)
}

// AllReduceScalar implements Comm (delays only; scalars are not flipped).
func (f *FaultInjector) AllReduceScalar(v float64) float64 {
	f.maybeDelay()
	return f.inner.AllReduceScalar(v)
}

// Barrierer is implemented by transports with an explicit N-party barrier
// (the simulated cluster's *Worker and the TCP transport's ranks).
type Barrierer interface {
	Barrier()
}

// ByteGatherer is implemented by transports that can all-gather opaque byte
// payloads — the control-plane primitive checkpointing uses, kept separate
// from the matrix collectives so chaos injectors never corrupt snapshots.
type ByteGatherer interface {
	AllGatherBytes(b []byte) [][]byte
}

// AsBarrier unwraps instrumentation layers down to a transport exposing a
// barrier, reporting false for single-process Comms.
func AsBarrier(c Comm) (Barrierer, bool) {
	for {
		if b, ok := c.(Barrierer); ok {
			return b, true
		}
		u, ok := c.(interface{ Unwrap() Comm })
		if !ok {
			return nil, false
		}
		c = u.Unwrap()
	}
}

// AsByteGatherer unwraps instrumentation layers down to a transport that
// can gather byte payloads, reporting false for single-process Comms.
func AsByteGatherer(c Comm) (ByteGatherer, bool) {
	for {
		if g, ok := c.(ByteGatherer); ok {
			return g, true
		}
		u, ok := c.(interface{ Unwrap() Comm })
		if !ok {
			return nil, false
		}
		c = u.Unwrap()
	}
}
