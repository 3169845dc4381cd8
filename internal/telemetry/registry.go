package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates metric types in snapshots.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds named metrics. A metric's identity is its name plus the
// canonical (sorted) label set; the first Counter/Gauge/Histogram call
// for an identity creates it and later calls return the same instance,
// so callers may either cache the pointer or re-resolve on each use.
// All methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

type entry struct {
	name   string
	labels []Label
	kind   Kind
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*entry{}}
}

// canonLabels returns a sorted copy of labels.
func canonLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

func metricKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

func (r *Registry) lookup(name string, labels []Label, kind Kind) (*entry, []Label, string) {
	canon := canonLabels(labels)
	key := metricKey(name, canon)
	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e, canon, key
	}
	return nil, canon, key
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e, canon, key := r.lookup(name, labels, KindCounter)
	if e == nil {
		e = r.create(key, &entry{name: name, labels: canon, kind: KindCounter, ctr: &Counter{}})
	}
	return e.ctr
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e, canon, key := r.lookup(name, labels, KindGauge)
	if e == nil {
		e = r.create(key, &entry{name: name, labels: canon, kind: KindGauge, gauge: &Gauge{}})
	}
	return e.gauge
}

// Histogram returns the histogram for name+labels, creating it with the
// given bounds (nil → TimeBuckets) on first use; bounds are ignored when
// the histogram already exists.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	e, canon, key := r.lookup(name, labels, KindHistogram)
	if e == nil {
		e = r.create(key, &entry{name: name, labels: canon, kind: KindHistogram, hist: NewHistogram(bounds)})
	}
	return e.hist
}

// create installs fresh under the write lock, returning the winner if a
// racing goroutine registered the same identity first.
func (r *Registry) create(key string, fresh *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entries[key]; e != nil {
		if e.kind != fresh.kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", fresh.name, e.kind, fresh.kind))
		}
		return e
	}
	r.entries[key] = fresh
	return fresh
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // finite upper bounds
	Counts []int64   // len(Bounds)+1; last is +Inf
	Sum    float64
	Count  int64
}

// Quantile estimates the q-quantile (q in [0,1]) of the snapshot by linear
// interpolation inside the containing bucket, the standard Prometheus
// histogram_quantile scheme. Observations in the +Inf bucket clamp to the
// highest finite bound. Returns 0 when empty.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, cnt := range s.Counts {
		c := float64(cnt)
		if cum+c >= rank {
			if i == len(s.Bounds) { // +Inf bucket
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// MetricPoint is one metric in a Snapshot.
type MetricPoint struct {
	Name   string
	Labels []Label
	Kind   Kind
	// Value holds the counter (as float) or gauge value.
	Value float64
	// Hist is set for KindHistogram.
	Hist *HistogramSnapshot
}

// Snapshot returns every metric sorted by name, then canonical labels —
// the stable order the exporters emit.
func (r *Registry) Snapshot() []MetricPoint {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()

	out := make([]MetricPoint, 0, len(entries))
	for _, e := range entries {
		p := MetricPoint{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			p.Value = float64(e.ctr.Value())
		case KindGauge:
			p.Value = e.gauge.Value()
		case KindHistogram:
			p.Hist = &HistogramSnapshot{
				Bounds: e.hist.Bounds(),
				Counts: e.hist.BucketCounts(),
				Sum:    e.hist.Sum(),
				Count:  e.hist.Count(),
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return metricKey("", out[i].Labels) < metricKey("", out[j].Labels)
	})
	return out
}
