package dist

import (
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// This file adds non-blocking variants of the Comm collectives. An
// AsyncComm wraps any Comm — localComm, *Worker, or an instrumentation
// chain (CheckedComm, FaultInjector) — and turns each collective into a
// submit/wait pair: StartX enqueues the operation and returns immediately;
// the returned future resolves when a serial executor goroutine has run the
// operation against the wrapped Comm.
//
// The executor preserves FIFO submission order, which is what makes async
// collectives safe on the simulated cluster: every rank submits the same
// canonical sequence (the scheduler enforces it), so the per-rank executors
// walk matching barrier sequences exactly as the blocking code did. It also
// means chaos-injection draws (FaultInjector's per-collective RNG) are
// consumed in submission order — bit-identical to a blocking run issuing
// the same sequence.
//
// On a single-worker Comm the operation runs inline at submit time (no
// goroutine, no channel, no allocation), keeping local hot paths free of
// async overhead.

// future is the shared resolution state embedded in the typed futures.
// A future is single-use: reset by StartX, resolved exactly once, and
// waited at most once per reset.
type future struct {
	// done is nil when the operation resolved inline at submit time;
	// otherwise it is closed by the executor after the result fields are
	// written.
	done     chan struct{}
	panicked any
	dur      time.Duration
}

// wait blocks until resolution, re-raising a panic captured by the
// executor (cluster poisoning, injected faults) on the waiter.
func (f *future) wait() {
	if f.done != nil {
		<-f.done
	}
	if f.panicked != nil {
		panic(f.panicked)
	}
}

// Dur returns how long the collective took to execute (barrier wait
// included). Valid only after Wait returns.
func (f *future) Dur() time.Duration { return f.dur }

// MatFuture is the handle of an in-flight collective returning one matrix
// (all-reduce, broadcast).
type MatFuture struct {
	future
	res *mat.Dense
}

// Wait blocks until the collective completes and returns its result,
// re-panicking on the waiter if the collective panicked.
func (f *MatFuture) Wait() *mat.Dense {
	f.wait()
	return f.res
}

// GatherFuture is the handle of an in-flight all-gather.
type GatherFuture struct {
	future
	res []*mat.Dense
}

// Wait blocks until the gather completes and returns the per-rank parts,
// re-panicking on the waiter if the collective panicked.
func (f *GatherFuture) Wait() []*mat.Dense {
	f.wait()
	return f.res
}

// AsyncComm provides non-blocking collective variants on top of a wrapped
// Comm. All StartX/XAsync calls must come from one goroutine at a time
// (the scheduler's comm dispatcher); executed operations run on a single
// executor goroutine in submission order. The blocking Comm methods are
// implemented as submit+wait, so mixing them with in-flight async
// operations keeps one total order.
type AsyncComm struct {
	inner  Comm
	inline bool // Size()==1: execute at submit time

	mu      sync.Mutex
	queue   []func()
	head    int
	running bool
}

// Async wraps c with non-blocking collective variants; it returns c itself
// when it is already an *AsyncComm.
func Async(c Comm) *AsyncComm {
	if a, ok := c.(*AsyncComm); ok {
		return a
	}
	return &AsyncComm{inner: c, inline: c.Size() == 1}
}

// Unwrap returns the wrapped Comm (used by AsBarrier and AsByteGatherer).
func (a *AsyncComm) Unwrap() Comm { return a.inner }

// Size implements Comm.
func (a *AsyncComm) Size() int { return a.inner.Size() }

// ID implements Comm.
func (a *AsyncComm) ID() int { return a.inner.ID() }

// reset rearms a future for a new submission.
func (a *AsyncComm) reset(f *future) {
	f.panicked = nil
	f.dur = 0
	if a.inline {
		f.done = nil
	} else {
		f.done = make(chan struct{})
	}
}

// submit enqueues op and makes sure an executor goroutine is draining the
// queue. The queue-depth gauge tracks submitted-but-unexecuted operations.
func (a *AsyncComm) submit(op func()) {
	a.mu.Lock()
	a.queue = append(a.queue, op)
	if telemetry.Enabled() {
		telemetry.SetGauge(telemetry.MetricSchedQueueDepth, float64(len(a.queue)-a.head))
	}
	if !a.running {
		a.running = true
		go a.drain()
	}
	a.mu.Unlock()
}

// drain executes queued operations in FIFO order until the queue is empty,
// then exits (a later submit starts a fresh drain). Each op captures its
// own panic into its future, so a poisoned barrier mid-queue fails that
// op's waiter loudly while the drain continues — leaving no goroutine
// stuck and no operation silently dropped.
func (a *AsyncComm) drain() {
	for {
		a.mu.Lock()
		if a.head == len(a.queue) {
			a.queue = a.queue[:0]
			a.head = 0
			a.running = false
			if telemetry.Enabled() {
				telemetry.SetGauge(telemetry.MetricSchedQueueDepth, 0)
			}
			a.mu.Unlock()
			return
		}
		op := a.queue[a.head]
		a.queue[a.head] = nil
		a.head++
		if telemetry.Enabled() {
			telemetry.SetGauge(telemetry.MetricSchedQueueDepth, float64(len(a.queue)-a.head))
		}
		a.mu.Unlock()
		op()
	}
}

// StartAllGatherMat begins a non-blocking all-gather into f (which must not
// have an unresolved submission outstanding). On the inline path a panic
// propagates at the submit site, exactly like the blocking call.
func (a *AsyncComm) StartAllGatherMat(f *GatherFuture, m *mat.Dense) {
	a.reset(&f.future)
	if a.inline {
		t0 := time.Now()
		f.res = a.inner.AllGatherMat(m)
		f.dur = time.Since(t0)
		return
	}
	a.submit(func() {
		defer close(f.done)
		defer func() { f.panicked = recover() }()
		t0 := time.Now()
		f.res = a.inner.AllGatherMat(m)
		f.dur = time.Since(t0)
	})
}

// StartAllReduceMat begins a non-blocking all-reduce into f.
func (a *AsyncComm) StartAllReduceMat(f *MatFuture, m *mat.Dense) {
	a.reset(&f.future)
	if a.inline {
		t0 := time.Now()
		f.res = a.inner.AllReduceMat(m)
		f.dur = time.Since(t0)
		return
	}
	a.submit(func() {
		defer close(f.done)
		defer func() { f.panicked = recover() }()
		t0 := time.Now()
		f.res = a.inner.AllReduceMat(m)
		f.dur = time.Since(t0)
	})
}

// StartBroadcastMat begins a non-blocking broadcast into f (m is ignored on
// non-root ranks, as in the blocking call).
func (a *AsyncComm) StartBroadcastMat(f *MatFuture, root int, m *mat.Dense) {
	a.reset(&f.future)
	if a.inline {
		t0 := time.Now()
		f.res = a.inner.BroadcastMat(root, m)
		f.dur = time.Since(t0)
		return
	}
	a.submit(func() {
		defer close(f.done)
		defer func() { f.panicked = recover() }()
		t0 := time.Now()
		f.res = a.inner.BroadcastMat(root, m)
		f.dur = time.Since(t0)
	})
}

// AllGatherMat implements Comm as submit+wait, preserving FIFO order with
// any in-flight async operations.
func (a *AsyncComm) AllGatherMat(m *mat.Dense) []*mat.Dense {
	var f GatherFuture
	a.StartAllGatherMat(&f, m)
	return f.Wait()
}

// AllReduceMat implements Comm as submit+wait.
func (a *AsyncComm) AllReduceMat(m *mat.Dense) *mat.Dense {
	var f MatFuture
	a.StartAllReduceMat(&f, m)
	return f.Wait()
}

// BroadcastMat implements Comm as submit+wait.
func (a *AsyncComm) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	var f MatFuture
	a.StartBroadcastMat(&f, root, m)
	return f.Wait()
}

// AllReduceScalar implements Comm. Scalar reductions have no async variant
// (nothing overlaps them); route through the executor queue for ordering.
func (a *AsyncComm) AllReduceScalar(v float64) float64 {
	if a.inline {
		return a.inner.AllReduceScalar(v)
	}
	var out float64
	f := &MatFuture{}
	a.reset(&f.future)
	a.submit(func() {
		defer close(f.done)
		defer func() { f.panicked = recover() }()
		out = a.inner.AllReduceScalar(v)
	})
	f.wait()
	return out
}
