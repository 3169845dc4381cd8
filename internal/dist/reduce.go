package dist

import "repro/internal/mat"

// This file defines THE canonical summation order for every sum-style
// collective in the repository. Float addition is non-associative, so
// bit-parity between the in-process Cluster, the async scheduler comm,
// and the multi-process TCP transport (whatever its tree's shape)
// requires a single fixed bracketing that every implementation realizes
// exactly. The canonical order is a pairwise tree over global ranks
// [0, world): a node covering the contiguous rank range [lo, hi) splits
// into [lo, mid) and [mid, hi) at mid = lo + reduceHalf(hi-lo), where
// reduceHalf(s) is the largest power of two strictly below s. The sum of
// a node is (sum of left child) + (sum of right child), elementwise, and
// a leaf's sum is rank lo's contribution. Chunking a payload never
// changes the bracketing: addition is elementwise, so splitting the
// vector into chunks only reorders independent additions.
//
// The TCP transport exploits the recursive structure: a subtree of
// members can merge two partial sums tagged [a, b) and [b, c) exactly
// when [a, c) is a canonical node split at b (see CanMergeSegments).
// Greedy merging of adjacent mergeable segments is confluent — each
// canonical node has a unique sibling — so the final bits do not depend
// on arrival order or on how ranks are grouped into processes.

// reduceHalf returns the canonical left-child size for a reduction node
// of size s >= 2: the largest power of two strictly below s.
func reduceHalf(s int) int {
	h := 1
	for h*2 < s {
		h *= 2
	}
	return h
}

// ReduceSplit returns the split point of the canonical reduction node
// [lo, hi): its children are [lo, ReduceSplit) and [ReduceSplit, hi).
// It panics when the range holds fewer than two ranks (leaves do not
// split).
func ReduceSplit(lo, hi int) int {
	if hi-lo < 2 {
		panic("dist: ReduceSplit on a leaf range")
	}
	return lo + reduceHalf(hi-lo)
}

// IsReduceNode reports whether [lo, hi) is a node of the canonical
// reduction tree over ranks [0, world).
func IsReduceNode(world, lo, hi int) bool {
	if lo < 0 || hi > world || lo >= hi {
		return false
	}
	a, b := 0, world
	for {
		if a == lo && b == hi {
			return true
		}
		if b-a < 2 {
			return false
		}
		mid := ReduceSplit(a, b)
		switch {
		case hi <= mid:
			b = mid
		case lo >= mid:
			a = mid
		default:
			return false
		}
	}
}

// CanMergeSegments reports whether partial sums over the adjacent rank
// ranges [lo, mid) and [mid, hi) may be folded (left + right) under the
// canonical order for a world of the given size.
func CanMergeSegments(world, lo, mid, hi int) bool {
	if mid <= lo || hi <= mid {
		return false
	}
	return IsReduceNode(world, lo, hi) && ReduceSplit(lo, hi) == mid
}

// CanonicalReduceDense returns the canonical pairwise-tree sum of parts
// (indexed by rank) in a freshly allocated matrix. Parts are not
// modified.
func CanonicalReduceDense(parts []*mat.Dense) *mat.Dense {
	if len(parts) == 0 {
		panic("dist: CanonicalReduceDense with no parts")
	}
	return canonicalSumDense(parts, 0, len(parts))
}

func canonicalSumDense(parts []*mat.Dense, lo, hi int) *mat.Dense {
	if hi-lo == 1 {
		return parts[lo].Clone()
	}
	mid := ReduceSplit(lo, hi)
	left := canonicalSumDense(parts, lo, mid)
	right := canonicalSumDense(parts, mid, hi)
	left.AddMat(right)
	return left
}

// CanonicalReduceScalar returns the canonical pairwise-tree sum of the
// per-rank scalars.
func CanonicalReduceScalar(vals []float64) float64 {
	if len(vals) == 0 {
		panic("dist: CanonicalReduceScalar with no values")
	}
	return canonicalSumScalar(vals, 0, len(vals))
}

func canonicalSumScalar(vals []float64, lo, hi int) float64 {
	if hi-lo == 1 {
		return vals[lo]
	}
	mid := ReduceSplit(lo, hi)
	return canonicalSumScalar(vals, lo, mid) + canonicalSumScalar(vals, mid, hi)
}

// CanonicalReduceVecs returns the canonical sum of equal-length vectors
// (indexed by rank) in a fresh slice. It is the reference the chunked
// tree transport is tested against.
func CanonicalReduceVecs(parts [][]float64) []float64 {
	if len(parts) == 0 {
		panic("dist: CanonicalReduceVecs with no parts")
	}
	out := canonicalSumVecs(parts, 0, len(parts))
	if len(parts) == 1 {
		out = append([]float64(nil), out...)
	}
	return out
}

func canonicalSumVecs(parts [][]float64, lo, hi int) []float64 {
	if hi-lo == 1 {
		return parts[lo]
	}
	mid := ReduceSplit(lo, hi)
	left := append([]float64(nil), canonicalSumVecs(parts, lo, mid)...)
	right := canonicalSumVecs(parts, mid, hi)
	for i, v := range right {
		left[i] += v
	}
	return left
}
