package telemetry

import (
	"strings"
	"testing"
)

// TestWriteNetSummaryEmpty: a registry with no network metrics prints
// nothing, so CLIs can call WriteNetSummary unconditionally.
func TestWriteNetSummaryEmpty(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricTrainIterations).Add(3) // unrelated metric must not trigger the section
	var b strings.Builder
	WriteNetSummary(&b, r)
	if b.Len() != 0 {
		t.Fatalf("expected no output for a net-less registry, got:\n%s", b.String())
	}
	WriteNetSummary(&b, nil)
	if b.Len() != 0 {
		t.Fatalf("nil registry must print nothing, got:\n%s", b.String())
	}
}

// TestWriteNetSummaryContent: RTT quantiles, per-rank byte counters (tx
// and rx folded onto one line per rank, sorted numerically), and the tree
// depth gauge all land in the section.
func TestWriteNetSummaryContent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(MetricNetRTT, RTTBucketsNS)
	for i := 0; i < 100; i++ {
		h.Observe(2e5) // 0.2 ms
	}
	r.Counter(MetricNetRankBytes, Label{"dir", "tx"}, Label{"rank", "0"}).Add(2048)
	r.Counter(MetricNetRankBytes, Label{"dir", "rx"}, Label{"rank", "0"}).Add(4096)
	r.Counter(MetricNetRankBytes, Label{"dir", "tx"}, Label{"rank", "10"}).Add(1 << 21)
	r.Counter(MetricNetRankBytes, Label{"dir", "tx"}, Label{"rank", "2"}).Add(100)
	r.Gauge(MetricNetTreeDepth).Set(1)

	var b strings.Builder
	WriteNetSummary(&b, r)
	out := b.String()

	for _, want := range []string{
		"network:",
		"heartbeat rtt:",
		"(n=100)",
		"tree depth: 1",
		"rank 0: tx 2.00KiB  rx 4.00KiB",
		"rank 2: tx 100B  rx 0B",
		"rank 10: tx 2.00MiB  rx 0B",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	// Numeric rank order: rank 2 before rank 10 despite lexicographic order.
	if strings.Index(out, "rank 2:") > strings.Index(out, "rank 10:") {
		t.Fatalf("ranks not sorted numerically:\n%s", out)
	}
	// All 100 samples sit in the (1e5, 2.5e5] bucket; interpolated
	// quantiles stay inside it.
	p50 := snapshotOf(h).Quantile(0.5)
	if p50 <= 1e5 || p50 > 2.5e5 {
		t.Fatalf("p50 %.0f outside the observed bucket (1e5, 2.5e5]", p50)
	}
}

// TestHistogramSnapshotQuantile pins the quantile estimate on a skewed
// histogram: interpolation inside a bucket, the clamp of q to [0,1], mass in
// the +Inf bucket, an empty leading bucket, and empty or nil snapshots.
func TestHistogramSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 3, 5, 9, 100} {
		h.Observe(v)
	}
	s := snapshotOf(h) // counts 1,2,2,1 and 2 in +Inf
	for _, c := range []struct{ q, want float64 }{
		{-1, 0}, {0, 0}, {0.25, 1.5}, {0.5, 3},
		{0.9, 8}, {1, 8}, {2, 8}, // +Inf mass reads as the top finite bound
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("q=%g: got %g want %g", c.q, got, c.want)
		}
	}
	sparse := NewHistogram([]float64{1, 2, 4})
	sparse.Observe(3)
	if got := snapshotOf(sparse).Quantile(0); got != 1 {
		t.Errorf("rank 0 in an empty first bucket: got %g want its bound 1", got)
	}
	if got := snapshotOf(NewHistogram([]float64{1})).Quantile(0.5); got != 0 {
		t.Errorf("zero-count snapshot quantile = %g; want 0", got)
	}
	var empty *HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatalf("nil snapshot quantile must be 0")
	}
}
