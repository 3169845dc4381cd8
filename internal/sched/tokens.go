package sched

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// TokenPool is the process-wide counting semaphore that bounds compute
// parallelism across BOTH the scheduler's stage workers and mat's parallel
// kernels: each runs its first worker on its caller's budget and adds
// workers only by acquiring tokens non-blockingly. The invariant — tokens
// in use never exceed the pool capacity — is what keeps nested parallelism
// from oversubscribing cores; see TestTokenBudget.
//
// TokenPool implements mat.Limiter.
type TokenPool struct {
	sem   chan struct{}
	inUse atomic.Int64
	high  atomic.Int64
}

// NewTokenPool returns a pool of n tokens (n ≥ 1).
func NewTokenPool(n int) *TokenPool {
	if n < 1 {
		n = 1
	}
	return &TokenPool{sem: make(chan struct{}, n)}
}

// Cap returns the pool capacity.
func (p *TokenPool) Cap() int { return cap(p.sem) }

// InUse returns the number of tokens currently checked out.
func (p *TokenPool) InUse() int { return int(p.inUse.Load()) }

// HighWater returns the maximum of InUse over the pool's lifetime.
func (p *TokenPool) HighWater() int { return int(p.high.Load()) }

func (p *TokenPool) note(delta int) {
	v := p.inUse.Add(int64(delta))
	for {
		h := p.high.Load()
		if v <= h || p.high.CompareAndSwap(h, v) {
			break
		}
	}
	if telemetry.Enabled() {
		telemetry.SetGauge(telemetry.MetricSchedTokensInUse, float64(v))
	}
}

// Acquire blocks until one token is available or cancel is closed, and
// reports whether the token was obtained.
func (p *TokenPool) Acquire(cancel <-chan struct{}) bool {
	select {
	case p.sem <- struct{}{}:
		p.note(1)
		return true
	case <-cancel:
		return false
	}
}

// TryAcquire implements mat.Limiter: grant up to n tokens without
// blocking, returning the number granted.
func (p *TokenPool) TryAcquire(n int) int {
	granted := 0
	for granted < n {
		select {
		case p.sem <- struct{}{}:
			granted++
		default:
			if granted > 0 {
				p.note(granted)
			}
			return granted
		}
	}
	if granted > 0 {
		p.note(granted)
	}
	return granted
}

// Release implements mat.Limiter: return n tokens to the pool. The
// counter decrements BEFORE capacity is returned (and increments after it
// is consumed, in Acquire/TryAcquire), so the observed InUse/HighWater
// never exceeds the number of tokens genuinely outstanding — and therefore
// never exceeds the pool capacity.
func (p *TokenPool) Release(n int) {
	p.note(-n)
	for i := 0; i < n; i++ {
		<-p.sem
	}
}
