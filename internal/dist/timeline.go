package dist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Phase names used by the second-order schedules; Fig. 7's breakdown
// reports exactly these four buckets.
const (
	PhaseFactorize = "factorization"
	PhaseInvert    = "inversion"
	PhaseGather    = "gather"
	PhaseBroadcast = "broadcast"
)

// timelineMetric is the histogram family Timeline records into, one
// series per phase label.
const timelineMetric = "phase_seconds"

// Timeline accumulates time per named phase. It is safe for concurrent
// use by cluster workers.
//
// Since the telemetry subsystem landed, Timeline is a thin adapter over a
// private telemetry.Registry: each phase is a phase_seconds histogram
// series labeled phase=<name>, so the Fig. 7 breakdown, its tests, and
// the -profiling CLI flag keep working unchanged while the same data can
// be exported in Prometheus form via Registry().
type Timeline struct {
	reg *telemetry.Registry
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{reg: telemetry.NewRegistry()}
}

func (t *Timeline) hist(phase string) *telemetry.Histogram {
	return t.reg.Histogram(timelineMetric, nil, telemetry.Label{Key: "phase", Value: phase})
}

// Add accrues seconds to phase.
func (t *Timeline) Add(phase string, seconds float64) {
	t.hist(phase).Observe(seconds)
}

// Total returns the accumulated seconds for phase.
func (t *Timeline) Total(phase string) float64 {
	return t.hist(phase).Sum()
}

// Sum returns the accumulated seconds across the given phases (all phases
// when none are named).
func (t *Timeline) Sum(phases ...string) float64 {
	if len(phases) == 0 {
		var s float64
		for _, p := range t.snapshot() {
			s += p.Hist.Sum
		}
		return s
	}
	var s float64
	for _, p := range phases {
		s += t.hist(p).Sum()
	}
	return s
}

// Count returns how many times phase was recorded.
func (t *Timeline) Count(phase string) int {
	return int(t.hist(phase).Count())
}

// snapshot returns the timeline's phase series from the registry.
func (t *Timeline) snapshot() []telemetry.MetricPoint {
	var out []telemetry.MetricPoint
	for _, p := range t.reg.Snapshot() {
		if p.Name == timelineMetric && p.Hist != nil {
			out = append(out, p)
		}
	}
	return out
}

// String renders phases sorted by name with millisecond totals.
func (t *Timeline) String() string {
	type row struct {
		name  string
		total float64
		count int64
	}
	var rows []row
	for _, p := range t.snapshot() {
		name := ""
		for _, l := range p.Labels {
			if l.Key == "phase" {
				name = l.Value
			}
		}
		rows = append(rows, row{name, p.Hist.Sum, p.Hist.Count})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.3f ms (%d events)\n", r.name, r.total*1e3, r.count)
	}
	return b.String()
}
