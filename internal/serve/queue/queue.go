// Package queue implements hylo-serve's admission queue: per-tenant
// priority-classed FIFOs drained by fair round-robin, with two quota
// knobs — a cap on how many jobs a tenant may have waiting
// (back-pressure, surfaced as HTTP 429) and a cap on how many it may
// have dispatched at once (so one tenant cannot monopolize the
// compute-token pool even when the queue is otherwise empty).
//
// Every item carries a priority class (low/normal/high). Pop always
// drains the highest non-empty class first, round-robin across tenants
// within a class — so priorities order work globally while tenant
// fairness still holds among equals. Requeue puts a preempted item back
// at the FRONT of its class so it resumes as soon as a slot frees, and
// Restore appends recovered items quota-free so a restarted daemon can
// always rebuild its own backlog.
//
// The queue is deliberately dumb about what it holds: a generic payload
// plus the tenant key and class rank. Lifecycle (cancellation, FSM
// transitions, preemption policy) lives in serve/runner; fairness,
// ordering, and quotas live here, where they can be tested exhaustively
// without spinning up jobs.
package queue

import (
	"errors"
	"sync"

	"repro/internal/telemetry"
)

// ErrQueueFull is returned by Push when the tenant's waiting quota is
// exhausted; the server maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("queue: tenant queue quota exhausted")

// NumPriorities is the number of priority classes (cliutil's
// low/normal/high ranks 0..2). Out-of-range ranks clamp into this range.
const NumPriorities = 3

func clampPri(pri int) int {
	if pri < 0 {
		return 0
	}
	if pri >= NumPriorities {
		return NumPriorities - 1
	}
	return pri
}

// Config bounds per-tenant usage. Zero values select the defaults.
type Config struct {
	// MaxQueuedPerTenant caps jobs waiting per tenant across all priority
	// classes (default 16).
	MaxQueuedPerTenant int
	// MaxActivePerTenant caps dispatched-but-unfinished jobs per tenant;
	// 0 means unlimited.
	MaxActivePerTenant int
}

type tenant[T any] struct {
	name string
	// fifos holds one FIFO per priority class, indexed by rank.
	fifos  [NumPriorities][]T
	queued int
	active int
}

// Queue is a fair round-robin multi-tenant priority queue. All methods
// are safe for concurrent use.
type Queue[T any] struct {
	mu      sync.Mutex
	cfg     Config
	tenants map[string]*tenant[T]
	// ring holds tenant names in first-seen order; next indexes the tenant
	// the round-robin scan starts from.
	ring  []string
	next  int
	depth int
	// notify is a level-triggered wakeup for the dispatcher: buffered at 1,
	// signaled on every Push, Requeue, Restore, and Done.
	notify chan struct{}
}

// New builds a queue with the given quotas.
func New[T any](cfg Config) *Queue[T] {
	if cfg.MaxQueuedPerTenant <= 0 {
		cfg.MaxQueuedPerTenant = 16
	}
	return &Queue[T]{
		cfg:     cfg,
		tenants: make(map[string]*tenant[T]),
		notify:  make(chan struct{}, 1),
	}
}

// Notify returns the dispatcher wakeup channel: it receives (at least) one
// signal after every enqueue and Done. Receivers must re-scan with Pop
// until it returns false.
func (q *Queue[T]) Notify() <-chan struct{} { return q.notify }

func (q *Queue[T]) signal() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *Queue[T]) tenantLocked(name string) *tenant[T] {
	t, ok := q.tenants[name]
	if !ok {
		t = &tenant[T]{name: name}
		q.tenants[name] = t
		q.ring = append(q.ring, name)
	}
	return t
}

// Push enqueues v for the tenant at the given priority rank, returning
// ErrQueueFull when the tenant's waiting quota is exhausted.
func (q *Queue[T]) Push(tenantName string, pri int, v T) error {
	q.mu.Lock()
	t := q.tenantLocked(tenantName)
	if t.queued >= q.cfg.MaxQueuedPerTenant {
		q.mu.Unlock()
		return ErrQueueFull
	}
	p := clampPri(pri)
	t.fifos[p] = append(t.fifos[p], v)
	t.queued++
	q.depth++
	d := q.depth
	q.mu.Unlock()
	telemetry.SetGauge(telemetry.MetricServeQueueDepth, float64(d))
	q.signal()
	return nil
}

// Requeue puts v back at the FRONT of its priority class, bypassing the
// waiting quota — the preemption path, where the item was already
// admitted once and must resume ahead of later arrivals of its class.
func (q *Queue[T]) Requeue(tenantName string, pri int, v T) {
	q.mu.Lock()
	t := q.tenantLocked(tenantName)
	p := clampPri(pri)
	t.fifos[p] = append([]T{v}, t.fifos[p]...)
	t.queued++
	q.depth++
	d := q.depth
	q.mu.Unlock()
	telemetry.SetGauge(telemetry.MetricServeQueueDepth, float64(d))
	q.signal()
}

// Restore appends v to the back of its priority class, bypassing the
// waiting quota — the restart-recovery path, where a daemon rebuilding
// its own backlog must never bounce its own jobs off the admission rules.
func (q *Queue[T]) Restore(tenantName string, pri int, v T) {
	q.mu.Lock()
	t := q.tenantLocked(tenantName)
	p := clampPri(pri)
	t.fifos[p] = append(t.fifos[p], v)
	t.queued++
	q.depth++
	d := q.depth
	q.mu.Unlock()
	telemetry.SetGauge(telemetry.MetricServeQueueDepth, float64(d))
	q.signal()
}

// Pop dequeues the next runnable item: the highest non-empty priority
// class wins, with fair round-robin across tenants within the class (the
// round-robin pointer advances one tenant per successful pop) and tenants
// at their active quota skipped (their items stay queued). The popped
// tenant's active count is incremented; the caller must pair every
// successful Pop with a Done. ok is false when no tenant has a runnable
// item.
func (q *Queue[T]) Pop() (v T, tenantName string, ok bool) {
	q.mu.Lock()
	n := len(q.ring)
	for pri := NumPriorities - 1; pri >= 0; pri-- {
		for i := 0; i < n; i++ {
			idx := (q.next + i) % n
			t := q.tenants[q.ring[idx]]
			if len(t.fifos[pri]) == 0 {
				continue
			}
			if q.cfg.MaxActivePerTenant > 0 && t.active >= q.cfg.MaxActivePerTenant {
				continue
			}
			fifo := t.fifos[pri]
			v = fifo[0]
			// Shift rather than reslice so released elements are collectable.
			copy(fifo, fifo[1:])
			var zero T
			fifo[len(fifo)-1] = zero
			t.fifos[pri] = fifo[:len(fifo)-1]
			t.queued--
			t.active++
			q.depth--
			q.next = (idx + 1) % n
			d := q.depth
			q.mu.Unlock()
			telemetry.SetGauge(telemetry.MetricServeQueueDepth, float64(d))
			return v, t.name, true
		}
	}
	q.mu.Unlock()
	return v, "", false
}

// Done releases one active slot for the tenant (call when a popped job
// reaches a terminal state) and wakes the dispatcher, since the release
// may unblock a quota-limited tenant.
func (q *Queue[T]) Done(tenantName string) {
	q.mu.Lock()
	if t, ok := q.tenants[tenantName]; ok && t.active > 0 {
		t.active--
	}
	q.mu.Unlock()
	q.signal()
}

// Len returns the number of queued (undispatched) items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// Queued returns the tenant's waiting count across all priority classes.
func (q *Queue[T]) Queued(tenantName string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t, ok := q.tenants[tenantName]; ok {
		return t.queued
	}
	return 0
}
