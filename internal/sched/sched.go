// Package sched is the execution scheduler for layer-parallel
// preconditioning: it pipelines the per-layer stages of a second-order
// update (local factorization → gather → solve → broadcast) across a
// bounded worker pool and overlaps communication with computation. There
// is one execution path for every worker count and layer count: compute
// goroutines plus one dispatcher goroutine that issues every collective as
// a blocking call.
//
// # Determinism
//
// Three rules make every worker count produce the same bits:
//
//  1. Compute stages touch only per-layer state; anything consuming a
//     shared RNG either runs before the pipeline (KIS sampling) or is
//     declared Ordered, which serializes that stage in ascending layer
//     order (randomized KID sketches).
//  2. All collectives are issued by ONE dispatcher goroutine in a fixed
//     canonical order — stage-major: for each comm stage in pipeline
//     order, layers ascending. Every rank issues the identical sequence,
//     so barrier sequences match, the sequence validator stays green, and
//     chaos-injection draws (one per collective, in call order) align
//     at every worker count.
//  3. Parallel loops under the stages (mat.Parallel) produce results
//     independent of their worker count, and the shared token pool only
//     changes worker counts, never arithmetic order.
//
// # Token pool
//
// One process-wide TokenPool (capacity max(workers, GOMAXPROCS)) is shared
// between stage execution and mat.Parallel via mat.Limiter: above one
// worker every running compute stage holds a token, and a parallel loop
// inside a stage may only add workers by borrowing spare tokens
// non-blockingly. Nested parallelism therefore never exceeds the pool
// capacity (TestTokenBudget). At one worker a stage runs on its caller's
// budget and takes no token, so a caller holding a token (a hylo-serve
// job) cannot starve its own pipeline.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

var (
	workersVal atomic.Int64
	pool       atomic.Pointer[TokenPool]
)

func init() { SetWorkers(runtime.GOMAXPROCS(0)) }

// SetWorkers sets the scheduler's per-optimizer stage parallelism: at most
// n compute stages run at once (n = 1: one at a time, still overlapped
// with the dispatcher's collectives). It also rebuilds the process-wide
// token pool (capacity max(n, GOMAXPROCS)) and installs it as mat's
// parallel-kernel limiter.
// Call between updates, not concurrently with a running pipeline.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	workersVal.Store(int64(n))
	c := runtime.GOMAXPROCS(0)
	if n > c {
		c = n
	}
	p := NewTokenPool(c)
	pool.Store(p)
	mat.SetParallelLimiter(p)
}

// Workers returns the configured stage parallelism (≥ 1).
func Workers() int { return int(workersVal.Load()) }

// Tokens returns the current process-wide token pool.
func Tokens() *TokenPool { return pool.Load() }

// Stage is one step of a per-layer preconditioner pipeline. Stages run in
// slice order for each layer, with Fn(i) invoked once per layer index.
type Stage struct {
	// Name labels the stage in diagnostics.
	Name string
	// Comm marks a communication stage: its Fn issues blocking collectives
	// and returns once they complete. Comm stages are executed by the
	// single dispatcher goroutine in canonical stage-major order.
	Comm bool
	// Ordered serializes a compute stage in ascending layer order (layer
	// i's Fn runs only after layer i−1's). Required for stages that
	// consume a shared RNG.
	Ordered bool
	// Fn does the stage's work for one layer.
	Fn func(layer int)
}

// Engine runs stage pipelines. Each optimizer owns one Engine so its done
// matrix and worker slots are reused across updates (steady-state
// allocation stays bounded). An Engine must not be copied after first use.
type Engine struct {
	mu     sync.Mutex
	cond   *sync.Cond
	done   [][]bool
	abort  bool
	failed any

	slots  chan struct{}
	slotsW int
}

// Run executes the pipeline over n layers: one goroutine per layer walks
// its compute stages, at most Workers() of them running at once, while one
// dispatcher goroutine runs every comm stage in canonical stage-major
// order, so layer i+1's gather is on the wire while layer i solves. With
// one worker a compute stage takes no pool token: the caller is parked in
// Run, and its budget covers the one stage running. A panic in any stage
// is re-raised on the caller, preserving the worker-death semantics
// train.Drive relies on.
func Run(e *Engine, n int, stages []Stage) {
	if n <= 0 || len(stages) == 0 {
		return
	}
	w := Workers()
	if e.cond == nil {
		e.cond = sync.NewCond(&e.mu)
	}
	e.resize(len(stages), n)
	e.abort = false
	e.failed = nil
	if e.slotsW != w {
		e.slots = make(chan struct{}, w)
		e.slotsW = w
	}
	abortCh := make(chan struct{})
	tokens := Tokens()
	if w == 1 {
		tokens = nil
	}

	var busy atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(n + 1)

	// One goroutine per layer walks that layer's compute stages in order;
	// cross-layer and comm dependencies are expressed through the done
	// matrix. Concurrency is bounded by the worker slots (stage fan-out)
	// and the global token pool (machine-wide compute budget).
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			for s := range stages {
				st := &stages[s]
				if st.Comm {
					continue
				}
				if s > 0 && !e.waitDone(s-1, i) {
					return
				}
				if st.Ordered && i > 0 && !e.waitDone(s, i-1) {
					return
				}
				select {
				case e.slots <- struct{}{}:
				case <-abortCh:
					return
				}
				if tokens != nil && !tokens.Acquire(abortCh) {
					<-e.slots
					return
				}
				t := time.Now()
				ok := e.runHook(st.Fn, i, abortCh)
				busy.Add(int64(time.Since(t)))
				if tokens != nil {
					tokens.Release(1)
				}
				<-e.slots
				if !ok {
					return
				}
				e.markDone(s, i)
			}
		}(i)
	}

	// The comm dispatcher: the only goroutine issuing collectives, in the
	// canonical stage-major order. It blocks in each collective while the
	// compute goroutines carry on — the comm/compute overlap this package
	// exists for.
	go func() {
		defer wg.Done()
		for s := range stages {
			st := &stages[s]
			if !st.Comm {
				continue
			}
			for i := 0; i < n; i++ {
				if s > 0 && !e.waitDone(s-1, i) {
					return
				}
				t := time.Now()
				if !e.runHook(st.Fn, i, abortCh) {
					return
				}
				busy.Add(int64(time.Since(t)))
				e.markDone(s, i)
			}
		}
	}()

	wg.Wait()
	if telemetry.Enabled() {
		if over := busy.Load() - int64(time.Since(t0)); over > 0 {
			telemetry.IncCounter(telemetry.MetricSchedOverlap, over)
		}
	}
	if e.failed != nil {
		panic(e.failed)
	}
}

func (e *Engine) resize(stages, n int) {
	if len(e.done) != stages || (stages > 0 && len(e.done[0]) != n) {
		e.done = make([][]bool, stages)
		for s := range e.done {
			e.done[s] = make([]bool, n)
		}
		return
	}
	for s := range e.done {
		row := e.done[s]
		for i := range row {
			row[i] = false
		}
	}
}

func (e *Engine) markDone(s, i int) {
	e.mu.Lock()
	e.done[s][i] = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *Engine) waitDone(s, i int) bool {
	e.mu.Lock()
	for !e.done[s][i] && !e.abort {
		e.cond.Wait()
	}
	ok := !e.abort
	e.mu.Unlock()
	return ok
}

// fail records the first failure and wakes every waiter; later failures
// (cascading aborts) are dropped.
func (e *Engine) fail(r any, abortCh chan struct{}) {
	e.mu.Lock()
	if !e.abort {
		e.abort = true
		e.failed = r
		close(abortCh)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *Engine) runHook(fn func(int), i int, abortCh chan struct{}) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.fail(r, abortCh)
			ok = false
		}
	}()
	fn(i)
	return true
}
