package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// grantLimiter grants at most k tokens per TryAcquire and counts what it
// was asked for, granted and got back.
type grantLimiter struct {
	k                       int
	asked, granted, release atomic.Int64
}

func (l *grantLimiter) TryAcquire(n int) int {
	l.asked.Add(1)
	g := min(n, l.k)
	l.granted.Add(int64(g))
	return g
}

func (l *grantLimiter) Release(n int) { l.release.Add(int64(n)) }

// parallelCover runs Parallel over [0, n) and returns how often each index
// was handed to a body, failing on an empty chunk.
func parallelCover(t *testing.T, n, grain int) []int32 {
	t.Helper()
	hits := make([]int32, n)
	var empty atomic.Bool
	Parallel(n, grain, hits, func(hits []int32, lo, hi int) {
		if lo >= hi {
			empty.Store(true)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if empty.Load() {
		t.Errorf("n=%d grain=%d: a body got an empty chunk", n, grain)
	}
	return hits
}

// TestParallel: every index goes to exactly one body call at every core
// count, one worker allocates nothing, and a limiter's grant bounds the
// bodies running at once and is released in full.
func TestParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const grain = 16
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 1000} {
			for i, h := range parallelCover(t, n, grain) {
				if h != 1 {
					t.Fatalf("GOMAXPROCS=%d n=%d: index %d went to %d bodies", procs, n, i, h)
				}
			}
		}
	}

	runtime.GOMAXPROCS(1)
	sum := new(int)
	if allocs := testing.AllocsPerRun(100, func() {
		Parallel(1000, grain, sum, func(s *int, lo, hi int) { *s += hi - lo })
	}); allocs != 0 {
		t.Errorf("one worker: %v allocs per Parallel, want 0", allocs)
	}

	runtime.GOMAXPROCS(4)
	defer SetParallelLimiter(nil)
	for k := 0; k <= 3; k++ {
		l := &grantLimiter{k: k}
		SetParallelLimiter(l)
		var running, peak atomic.Int32
		var mu sync.Mutex
		Parallel(64, 1, &mu, func(mu *sync.Mutex, lo, hi int) {
			r := running.Add(1)
			mu.Lock()
			peak.Store(max(peak.Load(), r))
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
		})
		if p := peak.Load(); p > int32(k+1) {
			t.Errorf("k=%d: %d bodies ran at once, want at most %d", k, p, k+1)
		}
		if l.asked.Load() != 1 || l.granted.Load() != int64(k) || l.release.Load() != int64(k) {
			t.Errorf("k=%d: asked %d times, granted %d, released %d; want 1, %d, %d",
				k, l.asked.Load(), l.granted.Load(), l.release.Load(), k, k)
		}
	}
}
