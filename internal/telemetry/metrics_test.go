package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 32, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
			c.Add(3)
		}()
	}
	wg.Wait()
	want := int64(goroutines*perG + goroutines*3)
	if got := c.Value(); got != want {
		t.Fatalf("counter = %d; want %d", got, want)
	}
}

func TestGaugeSet(t *testing.T) {
	var g Gauge
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g; want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 5, 100} {
		h.Observe(v)
	}
	// Inclusive upper bounds: 0.5,1 → le=1; 1.5,2 → le=2; 3 → le=4;
	// 5,100 → +Inf.
	want := []int64{2, 2, 1, 2}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d; want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %d; want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d; want 7", h.Count())
	}
	if math.Abs(h.Sum()-113) > 1e-12 {
		t.Fatalf("sum = %g; want 113", h.Sum())
	}
}

// snapshotOf freezes a live histogram the way Registry.Snapshot does.
func snapshotOf(h *Histogram) *HistogramSnapshot {
	return &HistogramSnapshot{Bounds: h.Bounds(), Counts: h.BucketCounts(), Sum: h.Sum(), Count: h.Count()}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	// 40 uniform samples, 10 per bucket.
	for b := 0; b < 4; b++ {
		for i := 0; i < 10; i++ {
			h.Observe(float64(b*10) + 5)
		}
	}
	cases := []struct{ q, want float64 }{
		{0.25, 10}, // rank 10 lands exactly at the first bound
		{0.5, 20},
		{0.75, 30},
		{1, 40},
		{0.125, 5}, // mid-first-bucket, linear interpolation
	}
	for _, c := range cases {
		if got := snapshotOf(h).Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%g) = %g; want %g", c.q, got, c.want)
		}
	}
	// +Inf-bucket mass clamps to the top finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(50)
	if got := snapshotOf(h2).Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %g; want 1", got)
	}
	// Empty histogram.
	if got := snapshotOf(NewHistogram(nil)).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g; want 0", got)
	}
}

func TestHistogramConcurrentExactSum(t *testing.T) {
	h := NewHistogram(nil)
	const goroutines, perG = 32, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), int64(goroutines*perG); got != want {
		t.Fatalf("count = %d; want %d", got, want)
	}
	if got, want := h.Sum(), float64(goroutines*perG)*0.25; got != want {
		t.Fatalf("sum = %g; want %g", got, want)
	}
}
