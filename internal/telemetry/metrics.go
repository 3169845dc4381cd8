// Package telemetry is the repo-wide observability layer: a Registry of
// counters, gauges, and fixed-bucket histograms; a Tracer recording
// begin/end spans and instant events with attributes; and exporters for
// the Chrome trace-event JSON format (chrome://tracing, Perfetto), the
// Prometheus text exposition format, and a compact JSONL event log.
//
// A process-global default instance exists but is DISABLED until
// SetEnabled(true); every instrumentation helper (Span, Instant,
// IncCounter, ...) first consults the Enabled() atomic, so instrumented
// hot paths cost one atomic load when telemetry is off. Tests and the
// dist.Timeline adapter construct private Registry/Tracer instances and
// use them directly — those always record.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Label is a key/value attribute attached to metrics and span events.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing integer metric (events, bytes).
// All methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add accrues n (n must be non-negative for Prometheus semantics;
// negative deltas are still applied but make the series non-monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can move in both directions (loss,
// accuracy, current damping). All methods are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets with the given
// inclusive upper bounds (an implicit +Inf bucket catches the rest). It
// also tracks the exact sum and count, so Timeline-style totals are
// preserved precisely. All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-added
	count  atomic.Int64
}

// TimeBuckets is the default bucket layout for durations in seconds,
// spanning 10 µs to 10 s roughly logarithmically.
var TimeBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram builds a histogram with the given sorted upper bounds;
// nil selects TimeBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = TimeBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper bounds (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns per-bucket counts; the last entry is the +Inf
// bucket. The snapshot is not atomic across buckets under concurrent
// writes, but each entry is individually consistent.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}
