package harness

import (
	"math"
	"sort"
)

// Median returns the middle value of xs (mean of the two middle values for
// an even count) and 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, and 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPermille are the candidates TailPercentile picks from, highest first,
// in tenths of a percent so that the count beyond one is exact.
var tailPermille = []int{999, 990, 950, 900, 750}

// TailPercentile picks the highest of p99.9/p99/p95/p90/p75 that still has
// at least ten samples beyond it, so a reported tail is never set by a
// handful of outliers. It returns 0 when even p75 has fewer than ten
// samples beyond it (n < 40): such a run reports only its median.
func TailPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// Sum adds xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// that a spread printed here is the one the benchmark contract is held to.
// It needs at least two values.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4 // past the ends this extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the interquartile distance of xs as a share of its median, and
// 0 with fewer than two values or a zero median.
func Spread(xs []float64) float64 {
	m := Median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
