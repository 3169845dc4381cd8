package telemetry

import (
	"sync"
	"time"
)

// Event kinds, matching the Chrome trace-event "ph" field.
const (
	KindComplete = 'X' // a span with a start and a duration
	KindInstant  = 'i' // a point event
)

// SpanEvent is one recorded trace event. Time is the offset from the
// tracer's epoch (its construction time under the default clock), so
// traces are self-contained and start near zero.
type SpanEvent struct {
	Name string
	// Kind is KindComplete or KindInstant.
	Kind byte
	// TID is the lane the event renders in — worker rank throughout this
	// repo, so a distributed run shows one row per simulated GPU.
	TID  int
	Time time.Duration
	Dur  time.Duration
	// Labels become Chrome-trace args / JSONL attributes (layer index,
	// mode=KID/KIS, epoch, ...).
	Labels []Label
}

// Tracer records span and instant events into a bounded in-memory buffer.
// All methods are safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	events []SpanEvent
	max    int
	now    func() time.Duration
}

// DefaultMaxEvents bounds a tracer's buffer; further events are dropped
// instead of growing memory without limit.
const DefaultMaxEvents = 1 << 20

// NewTracer returns a tracer whose clock is the monotonic time since
// construction.
func NewTracer() *Tracer {
	start := time.Now()
	return NewTracerAt(func() time.Duration { return time.Since(start) })
}

// NewTracerAt returns a tracer with an injected clock — tests pass a
// deterministic function so exported traces are byte-stable.
func NewTracerAt(now func() time.Duration) *Tracer {
	return &Tracer{max: DefaultMaxEvents, now: now}
}

// Now returns the tracer-clock reading, for callers that time a region
// themselves and report it via Record.
func (t *Tracer) Now() time.Duration { return t.now() }

// Span starts a span and returns the function that ends and records it.
//
//	defer tr.Span("inversion", rank, Label{"mode", "KID"})()
func (t *Tracer) Span(name string, tid int, labels ...Label) func() {
	start := t.now()
	return func() {
		t.record(SpanEvent{Name: name, Kind: KindComplete, TID: tid, Time: start, Dur: t.now() - start, Labels: labels})
	}
}

// Record adds a complete span with explicit start/duration (tracer-clock
// offsets).
func (t *Tracer) Record(name string, tid int, start, dur time.Duration, labels ...Label) {
	t.record(SpanEvent{Name: name, Kind: KindComplete, TID: tid, Time: start, Dur: dur, Labels: labels})
}

// Instant records a point event (worker failure, mode switch, ...).
func (t *Tracer) Instant(name string, tid int, labels ...Label) {
	t.record(SpanEvent{Name: name, Kind: KindInstant, TID: tid, Time: t.now(), Labels: labels})
}

func (t *Tracer) record(e SpanEvent) {
	t.mu.Lock()
	if len(t.events) < t.max {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in record order.
func (t *Tracer) Events() []SpanEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanEvent(nil), t.events...)
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
