package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Limiter bounds the extra worker goroutines Parallel may spawn. The
// scheduler (internal/sched) installs its process-wide token pool here so
// nested parallelism — layer-parallel preconditioner stages each running a
// parallel GEMM — never oversubscribes the machine: a loop that wants w
// workers keeps the calling goroutine for free and asks the limiter for up
// to w−1 extras, running with whatever it is granted.
//
// TryAcquire must be non-blocking (a kernel denied extras degrades to fewer
// workers, it never waits), and Release must return exactly the granted
// count. Results of the parallel kernels are independent of the worker
// count, so limiting never changes numerics — only the parallelism.
type Limiter interface {
	// TryAcquire grants up to n tokens without blocking, returning the
	// number granted (possibly 0).
	TryAcquire(n int) int
	// Release returns n previously granted tokens.
	Release(n int)
}

// parallelLimiter holds the installed Limiter; nil means unlimited (the
// default, preserving the historical GOMAXPROCS-wide behavior).
var parallelLimiter atomic.Pointer[limiterBox]

type limiterBox struct{ l Limiter }

// SetParallelLimiter installs (or, with nil, removes) the process-wide
// limiter consulted by Parallel. Safe to call concurrently
// with running kernels: in-flight acquisitions release against the limiter
// they were granted by.
func SetParallelLimiter(l Limiter) {
	if l == nil {
		parallelLimiter.Store(nil)
		return
	}
	parallelLimiter.Store(&limiterBox{l: l})
}

// Parallel runs body(arg, lo, hi) over chunks that cover [0, n) exactly
// once, each at most grain long. It uses up to min(GOMAXPROCS, ⌈n/grain⌉)
// workers: the caller, plus the extra goroutines the installed Limiter
// grants, all claiming chunks off one counter. With one worker it is
// body(arg, 0, n) on the caller. Every intra-op parallel loop in mat and nn
// goes through here, so they share one token budget; body must write
// nothing whose value depends on how [0, n) was cut.
//
// arg carries what body needs, so body can be a plain function or a method
// expression: a closure or an arg moved to the heap would allocate on every
// call, and only the fan-out (in its own function) moves them.
func Parallel[T any](n, grain int, arg T, body func(arg T, lo, hi int)) {
	if n <= 0 {
		return
	}
	extra := min(runtime.GOMAXPROCS(0), (n+grain-1)/grain) - 1
	if extra > 0 {
		if box := parallelLimiter.Load(); box != nil {
			if extra = box.l.TryAcquire(extra); extra > 0 {
				defer box.l.Release(extra)
			}
		}
	}
	if extra <= 0 {
		body(arg, 0, n)
		return
	}
	fanOut(n, grain, extra, arg, body)
}

// fanOut runs Parallel's claim loop on the caller and extra goroutines.
func fanOut[T any](n, grain, extra int, arg T, body func(arg T, lo, hi int)) {
	var next atomic.Int64
	claim := func() {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			body(arg, lo, min(lo+grain, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for range extra {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
