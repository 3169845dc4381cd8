package dist

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// WorkerError describes a worker that panicked during a recovered run.
type WorkerError struct {
	Rank int
	Err  any
}

// Error implements error.
func (w WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %d panicked: %v", w.Rank, w.Err)
}

// RunWithRecovery launches fn on every worker like Run, but converts
// worker panics into errors instead of crashing the process. When a
// worker dies, surviving workers blocked in collectives would deadlock —
// exactly as in a real job when a rank disappears — so the barrier is
// poisoned: every pending and future barrier entry panics with
// ErrClusterPoisoned, which is also recovered and reported. The return
// value lists one error per failed worker (nil if all succeeded).
//
// This exists for failure-injection testing: verifying that training
// harness code fails loudly rather than hanging when a replica dies.
func (c *Cluster) RunWithRecovery(fn func(w *Worker)) []error {
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	wg.Add(c.P)
	for r := 0; r < c.P; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					mu.Lock()
					errs = append(errs, WorkerError{Rank: rank, Err: rec})
					mu.Unlock()
					if rec != any(ErrClusterPoisoned) {
						// Only the originating death is a failure event;
						// poisoned peers are collateral.
						telemetry.IncCounter(telemetry.MetricWorkerFailures, 1)
						telemetry.Instant("worker_failure", rank,
							telemetry.Label{Key: "error", Value: fmt.Sprint(rec)})
					}
					c.barrier.poison()
				}
			}()
			fn(&Worker{Rank: rank, c: c, parts: make([][]float64, c.P)})
		}(r)
	}
	wg.Wait()
	return errs
}

// ErrClusterPoisoned is the panic value delivered to workers blocked in a
// barrier when a peer dies.
const ErrClusterPoisoned = "dist: cluster poisoned by a failed worker"

// poison wakes all waiters and makes every subsequent await panic.
func (b *barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
