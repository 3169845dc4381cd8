// Package sched is the execution scheduler for layer-parallel
// preconditioning: it pipelines the per-layer stages of a second-order
// update (local factorization → gather → solve → broadcast) across a
// bounded set of workers and overlaps communication with computation.
// There is one execution path for every worker count and layer count: the
// caller of Run issues every collective itself, as a blocking call, while
// up to Workers() workers take the compute cells as they become ready.
//
// # Determinism
//
// Three rules make every worker count produce the same bits:
//
//  1. Compute stages touch only per-layer state; anything consuming a
//     shared RNG either runs before the pipeline (KIS sampling) or is
//     declared Ordered, which serializes that stage in ascending layer
//     order (randomized KID sketches).
//  2. All collectives are issued by one goroutine, Run's caller, in a fixed
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
// by Run and mat.Parallel (via mat.Limiter), under one rule: a parallel
// region's first worker runs on its caller's budget, and every other
// worker runs only while it holds a token from a non-blocking TryAcquire.
// No stage ever blocks on the pool, so a caller holding a token of its own
// (a hylo-serve job) cannot starve its pipeline, and nested parallelism
// never holds more tokens than the pool has (TestTokenBudget).
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
// n compute cells of one Run execute at once (n = 1: one at a time, still
// overlapped with the caller's collectives). It also rebuilds the
// process-wide token pool (capacity max(n, GOMAXPROCS)) and installs it as
// mat's parallel-kernel limiter.
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
	// and returns once they complete. Run's caller executes every comm
	// stage itself, in canonical stage-major order.
	Comm bool
	// Ordered serializes a compute stage in ascending layer order (layer
	// i's Fn runs only after layer i−1's). Required for stages that
	// consume a shared RNG.
	Ordered bool
	// Fn does the stage's work for one layer.
	Fn func(layer int)
}

// The states of a (stage, layer) cell.
const (
	cellPending uint8 = iota
	cellRunning
	cellDone
)

// Engine runs stage pipelines. Each optimizer owns one Engine so its cell
// matrix is reused across updates (a warmed Run allocates only its worker
// goroutines). An Engine must not be copied after first use.
type Engine struct {
	mu     sync.Mutex
	cond   sync.Cond
	stages []Stage // the running graph
	n      int
	state  []uint8 // cell (s, i) at s*n + i
	left   int     // compute cells not yet taken
	live   int     // worker goroutines not yet returned
	tokens *TokenPool
	busy   time.Duration
	abort  bool
	failed any
}

// Run executes the pipeline over n layers. The caller issues every comm
// cell itself in canonical stage-major order, so layer i+1's gather is on
// the wire while layer i solves; min(Workers(), n) workers take the ready
// compute cells, earliest stage first. Worker 0 is the caller itself when
// the graph has no comm stage, one goroutine otherwise. A panic in any
// stage is recorded once and re-raised on the caller after every worker
// has returned, preserving the worker-death semantics train.Drive relies
// on.
func Run(e *Engine, n int, stages []Stage) {
	if n <= 0 || len(stages) == 0 {
		return
	}
	comm := false
	e.left = 0
	for s := range stages {
		if stages[s].Comm {
			comm = true
		} else {
			e.left += n
		}
	}
	e.state = append(e.state[:0], make([]uint8, len(stages)*n)...) // all pending
	e.cond.L = &e.mu
	e.stages, e.n, e.tokens = stages, n, Tokens()
	e.busy, e.abort, e.failed = 0, false, nil

	t0 := time.Now()
	if e.left > 0 {
		helpers := min(Workers(), n) - 1
		e.live = helpers
		for range helpers {
			go e.worker(true)
		}
		if comm {
			e.live++
			go e.worker(false)
		}
	}
	e.mu.Lock()
	if comm {
		e.dispatch()
	} else {
		e.work(false)
	}
	for e.live > 0 {
		e.cond.Wait()
	}
	e.stages, e.tokens = nil, nil
	busy, failed := e.busy, e.failed
	e.mu.Unlock()

	if telemetry.Enabled() {
		if over := busy - time.Since(t0); over > 0 {
			telemetry.IncCounter(telemetry.MetricSchedOverlap, int64(over))
		}
	}
	if failed != nil {
		panic(failed)
	}
}

// worker is one worker goroutine of a Run.
func (e *Engine) worker(helper bool) {
	e.mu.Lock()
	e.work(helper)
	e.live--
	e.cond.Broadcast()
	e.mu.Unlock()
}

// work takes ready compute cells until none is left or the graph fails. A
// helper runs each cell on a token it borrows without blocking and, denied
// one, waits for the next finished cell; worker 0 runs on its caller's
// budget. Called and returns with e.mu held.
func (e *Engine) work(helper bool) {
	for e.left > 0 && !e.abort {
		c := e.ready()
		if c < 0 || helper && e.tokens.TryAcquire(1) == 0 {
			e.cond.Wait()
			continue
		}
		e.state[c] = cellRunning
		e.left--
		e.run(c)
		if helper {
			e.tokens.Release(1)
		}
	}
}

// dispatch issues every comm cell, stage-major and layers ascending, each
// once its layer's previous stage is done. Called and returns with e.mu
// held.
func (e *Engine) dispatch() {
	n := e.n
	for s := range e.stages {
		if !e.stages[s].Comm {
			continue
		}
		for c := s * n; c < (s+1)*n; c++ {
			for s > 0 && e.state[c-n] != cellDone && !e.abort {
				e.cond.Wait()
			}
			if e.abort {
				return
			}
			e.run(c)
		}
	}
}

// ready returns the first ready compute cell, earliest stage first, or −1:
// a pending cell whose layer has finished the previous stage and, in an
// Ordered stage, whose previous layer has finished this one.
func (e *Engine) ready() int {
	n := e.n
	for s := range e.stages {
		if e.stages[s].Comm {
			continue
		}
		ordered := e.stages[s].Ordered
		for c := s * n; c < (s+1)*n; c++ {
			if e.state[c] == cellPending && (s == 0 || e.state[c-n] == cellDone) &&
				(!ordered || c == s*n || e.state[c-1] == cellDone) {
				return c
			}
		}
	}
	return -1
}

// run executes cell c with e.mu released and records the outcome under it:
// the cell done, or the graph's first failure, which stops every worker.
func (e *Engine) run(c int) {
	e.mu.Unlock()
	t := time.Now()
	failure, ok := e.call(c)
	d := time.Since(t)
	e.mu.Lock()
	e.busy += d
	if ok {
		e.state[c] = cellDone
	} else if !e.abort {
		e.abort, e.failed = true, failure
	}
	e.cond.Broadcast()
}

func (e *Engine) call(c int) (failure any, ok bool) {
	defer func() {
		if !ok {
			failure = recover()
		}
	}()
	e.stages[c/e.n].Fn(c % e.n)
	return nil, true
}
