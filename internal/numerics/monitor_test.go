package numerics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestMonitorAggregates(t *testing.T) {
	m := NewMonitor()
	m.ObserveCondition("site.a", 10)
	m.ObserveCondition("site.a", 1e20) // over the default limit
	m.ObserveCondition("site.b", math.Inf(1))
	m.AddRetries("site.a", 3)
	m.AddRetries("site.a", 0) // no-op
	m.RecordFallback("site.b", RungKIS, "inner system singular")
	m.RecordFallback("site.b", RungKIS, "again")
	m.RecordFallback("site.b", RungIdentity, "gave up")
	m.AddScrubs(5)
	m.AddScrubs(-1) // no-op

	s := m.Snapshot()
	if s.Retries["site.a"] != 3 {
		t.Fatalf("retries = %v", s.Retries)
	}
	if s.TotalRetries() != 3 {
		t.Fatalf("TotalRetries = %d", s.TotalRetries())
	}
	if s.Fallbacks["site.b"][RungKIS] != 2 || s.Fallbacks["site.b"][RungIdentity] != 1 {
		t.Fatalf("fallbacks = %v", s.Fallbacks)
	}
	if s.TotalFallbacks() != 3 {
		t.Fatalf("TotalFallbacks = %d", s.TotalFallbacks())
	}
	if s.RungCount(RungKIS) != 2 || s.RungCount(RungNystrom) != 0 {
		t.Fatalf("RungCount kis=%d nystrom=%d", s.RungCount(RungKIS), s.RungCount(RungNystrom))
	}
	if s.Scrubs != 5 {
		t.Fatalf("scrubs = %d", s.Scrubs)
	}

	rep := m.Report()
	for _, want := range []string{"site.a", "site.b", "damping retries",
		"degradation-ladder fallbacks", "kis", "identity",
		"non-finite values scrubbed: 5", "inner system singular"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if strings.Contains(rep, "all solves healthy") {
		t.Fatal("unhealthy run reported as healthy")
	}

	m.Reset()
	s = m.Snapshot()
	if s.TotalRetries() != 0 || s.TotalFallbacks() != 0 || s.Scrubs != 0 {
		t.Fatalf("Reset left state: %+v", s)
	}
	if rep := m.Report(); !strings.Contains(rep, "all solves healthy") {
		t.Fatalf("clean monitor not reported healthy:\n%s", rep)
	}
}

func TestRungString(t *testing.T) {
	want := map[Rung]string{
		RungPrimary:  "primary",
		RungRetry:    "damped-retry",
		RungKIS:      "kis",
		RungNystrom:  "nystrom",
		RungDiagonal: "diagonal",
		RungIdentity: "identity",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("Rung(%d).String() = %q; want %q", int(r), r.String(), s)
		}
	}
	if got := Rung(99).String(); got != "rung(99)" {
		t.Fatalf("unknown rung = %q", got)
	}
	// The ladder ordering is part of the contract: healthier rungs compare
	// lower.
	if !(RungPrimary < RungRetry && RungRetry < RungKIS && RungKIS < RungNystrom &&
		RungNystrom < RungDiagonal && RungDiagonal < RungIdentity) {
		t.Fatal("ladder ordering broken")
	}
}

func TestCondLimit(t *testing.T) {
	defer SetCondLimit(DefaultCondLimit)
	if CondLimit() != DefaultCondLimit {
		t.Fatalf("default limit = %g", CondLimit())
	}
	SetCondLimit(1e6)
	if CondLimit() != 1e6 {
		t.Fatalf("limit = %g; want 1e6", CondLimit())
	}
	// Invalid limits reset to the default rather than poisoning the knob.
	for _, bad := range []float64{0, -3, 1, math.NaN(), math.Inf(1)} {
		SetCondLimit(bad)
		if CondLimit() != DefaultCondLimit {
			t.Fatalf("SetCondLimit(%v) left limit %g; want default", bad, CondLimit())
		}
	}
}

// Over-limit accounting must respect the limit at observation time.
func TestObserveConditionOverLimit(t *testing.T) {
	defer SetCondLimit(DefaultCondLimit)
	SetCondLimit(100)
	m := NewMonitor()
	m.ObserveCondition("s", 50)         // under
	m.ObserveCondition("s", 1e3)        // over
	m.ObserveCondition("s", math.NaN()) // counts as over
	rep := m.Report()
	if !strings.Contains(rep, "over-limit=2") {
		t.Fatalf("report missing over-limit accounting:\n%s", rep)
	}
}

// The reported mean is over every finite observation, whether or not it
// was over the limit; non-finite ones enter neither the sum nor the count.
func TestReportMeanCountsFiniteObservations(t *testing.T) {
	defer SetCondLimit(DefaultCondLimit)
	SetCondLimit(1e14)
	m := NewMonitor()
	m.ObserveCondition("mixed", 10)
	m.ObserveCondition("mixed", 1e15) // finite, over the limit
	m.ObserveCondition("mixed", math.Inf(1))
	m.ObserveCondition("only-over", 1e15)
	rep := m.Report()
	for _, want := range []string{
		"mixed                    n=3      mean=5e+14      max=1e+15      over-limit=2",
		"only-over                n=1      mean=1e+15      max=1e+15      over-limit=1",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestMonitorConcurrentUse(t *testing.T) {
	m := NewMonitor()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				m.ObserveCondition("par", float64(i))
				m.AddRetries("par", 1)
				m.RecordFallback("par", RungRetry, "r")
				m.AddScrubs(1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Retries["par"] != 800 || s.Fallbacks["par"][RungRetry] != 800 || s.Scrubs != 800 {
		t.Fatalf("concurrent totals: %+v", s)
	}
}
