// Package numerics is the repo-wide numerical-health subsystem: a process
// Monitor that aggregates per-site condition estimates, damping retries,
// degradation-ladder fallbacks, and non-finite scrubs, plus the shared
// vocabulary (Rung) the panic-free solver plumbing uses to say how far a
// solve had to degrade.
//
// The solver layers (mat, core, kfac, sngd, kbfgs, train) record into the
// process-global Default() monitor; recording is cheap (one mutex-guarded
// map update per event — events only happen at second-order update sites,
// never per element). When telemetry is enabled, every event is mirrored
// onto telemetry counters/gauges so Prometheus and the JSONL exporters see
// the same signals; the end-of-run `-numerics-report` summary comes from
// Report().
package numerics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Rung identifies one level of the degradation ladder. Lower is healthier:
// RungPrimary means the requested solve succeeded as-is; each further rung
// is a strictly cheaper / safer approximation, ending at RungIdentity —
// the plain (scaled) SGD direction with no curvature correction at all.
type Rung int

// The ladder, healthiest first.
const (
	// RungPrimary: the requested factorization/solve succeeded unmodified.
	RungPrimary Rung = iota
	// RungRetry: succeeded after Levenberg-Marquardt damping escalation.
	RungRetry
	// RungExact: a sketched (randomized-ID) KID factorization was rejected
	// by its condition/residual guard and redone with the exact pivoted-QR
	// interpolative decomposition.
	RungExact
	// RungKIS: the KID inner system was abandoned for the KIS-style damped
	// kernel inverse on the same reduced rows.
	RungKIS
	// RungNystrom: fell back to the Nyström-Woodbury reduction.
	RungNystrom
	// RungDiagonal: fell back to a diagonal (Jacobi) inverse.
	RungDiagonal
	// RungIdentity: no usable curvature — the update degrades to the plain
	// gradient direction.
	RungIdentity
)

// String implements fmt.Stringer.
func (r Rung) String() string {
	switch r {
	case RungPrimary:
		return "primary"
	case RungRetry:
		return "damped-retry"
	case RungExact:
		return "exact-kid"
	case RungKIS:
		return "kis"
	case RungNystrom:
		return "nystrom"
	case RungDiagonal:
		return "diagonal"
	case RungIdentity:
		return "identity"
	}
	return fmt.Sprintf("rung(%d)", int(r))
}

// condLimit is the strictness knob: a successful factorization whose
// estimated 1-norm condition number exceeds the limit is treated as failed
// by the ladder callers, forcing a damped retry. Stored as float64 bits so
// concurrent workers can read it without a lock.
var condLimit atomic.Uint64

// DefaultCondLimit is the default strictness: solutions are accepted up to
// ~100 ulps of cancellation headroom short of total precision loss.
const DefaultCondLimit = 1e14

func init() { condLimit.Store(math.Float64bits(DefaultCondLimit)) }

// SetCondLimit sets the condition-number strictness limit; v <= 1 or
// non-finite values reset it to DefaultCondLimit.
func SetCondLimit(v float64) {
	if !(v > 1) || math.IsInf(v, 0) || math.IsNaN(v) {
		v = DefaultCondLimit
	}
	condLimit.Store(math.Float64bits(v))
}

// CondLimit returns the current condition-number strictness limit.
func CondLimit() float64 { return math.Float64frombits(condLimit.Load()) }

// condStat aggregates condition-number observations for one site.
type condStat struct {
	n      int64
	finite int64   // observations that entered sum and max
	sum    float64 // over the finite observations, over-limit ones included
	max    float64
	over   int64 // observations above the limit at observation time
}

// event is one degradation-ladder firing, kept in a bounded recent-events
// ring for the report.
type event struct {
	Site   string
	Rung   Rung
	Reason string
}

// maxEvents bounds the recent-degradation ring in the report.
const maxEvents = 32

// Monitor aggregates numerical-health events. All methods are safe for
// concurrent use (simulated workers run on separate goroutines).
type Monitor struct {
	mu        sync.Mutex
	conds     map[string]*condStat
	retries   map[string]int64
	fallbacks map[string]map[Rung]int64
	events    []event
	scrubs    atomic.Int64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		conds:     map[string]*condStat{},
		retries:   map[string]int64{},
		fallbacks: map[string]map[Rung]int64{},
	}
}

var defaultMonitor = NewMonitor()

// Default returns the process-global monitor.
func Default() *Monitor { return defaultMonitor }

// ObserveCondition records a condition-number estimate for a solve site.
// Non-finite estimates count as over-limit observations.
func (m *Monitor) ObserveCondition(site string, cond float64) {
	m.mu.Lock()
	st := m.conds[site]
	if st == nil {
		st = &condStat{}
		m.conds[site] = st
	}
	st.n++
	if math.IsNaN(cond) || math.IsInf(cond, 0) || cond > CondLimit() {
		st.over++
	}
	if !math.IsNaN(cond) && !math.IsInf(cond, 0) {
		st.finite++
		st.sum += cond
		if cond > st.max {
			st.max = cond
		}
	}
	m.mu.Unlock()
	if telemetry.Enabled() {
		telemetry.SetGauge(telemetry.MetricNumericsCond,
			cond, telemetry.Label{Key: "site", Value: site})
	}
}

// AddRetries records n damping-escalation retries at a solve site.
func (m *Monitor) AddRetries(site string, n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.retries[site] += int64(n)
	m.mu.Unlock()
	if telemetry.Enabled() {
		telemetry.IncCounter(telemetry.MetricNumericsRetries,
			int64(n), telemetry.Label{Key: "site", Value: site})
	}
}

// RecordFallback records that a degradation-ladder rung fired at a site,
// with a human-readable reason (typically the underlying solver error).
func (m *Monitor) RecordFallback(site string, rung Rung, reason string) {
	m.mu.Lock()
	byRung := m.fallbacks[site]
	if byRung == nil {
		byRung = map[Rung]int64{}
		m.fallbacks[site] = byRung
	}
	byRung[rung]++
	if len(m.events) < maxEvents {
		m.events = append(m.events, event{Site: site, Rung: rung, Reason: reason})
	}
	m.mu.Unlock()
	if telemetry.Enabled() {
		telemetry.IncCounter(telemetry.MetricNumericsFallbacks, 1,
			telemetry.Label{Key: "site", Value: site},
			telemetry.Label{Key: "rung", Value: rung.String()})
	}
}

// AddScrubs records n non-finite values scrubbed (zeroed) from a tensor.
func (m *Monitor) AddScrubs(n int) {
	if n <= 0 {
		return
	}
	m.scrubs.Add(int64(n))
	if telemetry.Enabled() {
		telemetry.IncCounter(telemetry.MetricNumericsScrubs, int64(n))
	}
}

// Reset clears all aggregates (tests and fresh runs).
func (m *Monitor) Reset() {
	m.mu.Lock()
	m.conds = map[string]*condStat{}
	m.retries = map[string]int64{}
	m.fallbacks = map[string]map[Rung]int64{}
	m.events = nil
	m.mu.Unlock()
	m.scrubs.Store(0)
}

// Snapshot is a point-in-time copy of the monitor's aggregates.
type Snapshot struct {
	// Retries maps site → total damping-escalation retries.
	Retries map[string]int64
	// Fallbacks maps site → rung → count of ladder firings.
	Fallbacks map[string]map[Rung]int64
	// Scrubs is the total count of non-finite values zeroed.
	Scrubs int64
}

// Snapshot returns a copy of the retry/fallback/scrub aggregates.
func (m *Monitor) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Retries:   make(map[string]int64, len(m.retries)),
		Fallbacks: make(map[string]map[Rung]int64, len(m.fallbacks)),
		Scrubs:    m.scrubs.Load(),
	}
	for k, v := range m.retries {
		s.Retries[k] = v
	}
	for site, byRung := range m.fallbacks {
		c := make(map[Rung]int64, len(byRung))
		for r, n := range byRung {
			c[r] = n
		}
		s.Fallbacks[site] = c
	}
	return s
}

// TotalRetries sums damping retries across all sites.
func (s Snapshot) TotalRetries() int64 {
	var n int64
	for _, v := range s.Retries {
		n += v
	}
	return n
}

// TotalFallbacks sums ladder firings across all sites and rungs.
func (s Snapshot) TotalFallbacks() int64 {
	var n int64
	for _, byRung := range s.Fallbacks {
		for _, v := range byRung {
			n += v
		}
	}
	return n
}

// RungCount sums firings of one rung across all sites.
func (s Snapshot) RungCount(r Rung) int64 {
	var n int64
	for _, byRung := range s.Fallbacks {
		n += byRung[r]
	}
	return n
}

// Report renders the end-of-run numerical-health summary. An entirely
// healthy run produces a single line saying so.
func (m *Monitor) Report() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	b.WriteString("numerical-health report\n")
	healthy := true

	if len(m.conds) > 0 {
		b.WriteString("  condition estimates (1-norm, Hager):\n")
		for _, site := range sortedKeys(m.conds) {
			st := m.conds[site]
			mean := 0.0
			if st.finite > 0 {
				mean = st.sum / float64(st.finite)
			}
			fmt.Fprintf(&b, "    %-24s n=%-6d mean=%-10.3g max=%-10.3g over-limit=%d\n",
				site, st.n, mean, st.max, st.over)
			if st.over > 0 {
				healthy = false
			}
		}
	}
	if len(m.retries) > 0 {
		healthy = false
		b.WriteString("  damping retries:\n")
		for _, site := range sortedKeys(m.retries) {
			fmt.Fprintf(&b, "    %-24s %d\n", site, m.retries[site])
		}
	}
	if len(m.fallbacks) > 0 {
		healthy = false
		b.WriteString("  degradation-ladder fallbacks:\n")
		for _, site := range sortedKeys(m.fallbacks) {
			byRung := m.fallbacks[site]
			rungs := make([]Rung, 0, len(byRung))
			for r := range byRung {
				rungs = append(rungs, r)
			}
			sort.Slice(rungs, func(i, j int) bool { return rungs[i] < rungs[j] })
			for _, r := range rungs {
				fmt.Fprintf(&b, "    %-24s %-12s %d\n", site, r.String(), byRung[r])
			}
		}
	}
	if n := m.scrubs.Load(); n > 0 {
		healthy = false
		fmt.Fprintf(&b, "  non-finite values scrubbed: %d\n", n)
	}
	if len(m.events) > 0 {
		b.WriteString("  recent degradations:\n")
		for _, e := range m.events {
			fmt.Fprintf(&b, "    %s → %s (%s)\n", e.Site, e.Rung, e.Reason)
		}
	}
	if healthy {
		b.WriteString("  all solves healthy: no retries, fallbacks, or scrubs recorded\n")
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Package-level convenience wrappers over Default().

// ObserveCondition records a condition estimate on the default monitor.
func ObserveCondition(site string, cond float64) { defaultMonitor.ObserveCondition(site, cond) }

// AddRetries records damping retries on the default monitor.
func AddRetries(site string, n int) { defaultMonitor.AddRetries(site, n) }

// RecordFallback records a ladder firing on the default monitor.
func RecordFallback(site string, rung Rung, reason string) {
	defaultMonitor.RecordFallback(site, rung, reason)
}

// AddScrubs records non-finite scrubs on the default monitor.
func AddScrubs(n int) { defaultMonitor.AddScrubs(n) }

// Reset clears the default monitor.
func Reset() { defaultMonitor.Reset() }

// Report renders the default monitor's summary.
func Report() string { return defaultMonitor.Report() }
