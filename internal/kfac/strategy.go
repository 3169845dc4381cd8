package kfac

import "math"

// Strategy selects KAISA's distribution mode for the second-order state.
//
// KAISA's contribution is a tunable placement of factor inversion work:
//   - CommOpt (communication-optimal): every worker keeps factors and
//     computes every layer's inverses locally — no inverse broadcast, at
//     the cost of redundant computation and full-state memory everywhere.
//   - MemOpt (memory-optimal): each layer's inversion runs only on its
//     owning worker and the inverses are broadcast; non-owners drop their
//     running factor copies, minimizing memory.
//   - Hybrid: per-layer choice by a memory budget — small layers go
//     comm-optimal, large layers memory-optimal (KAISA's default mode).
type Strategy int

// The three KAISA placement strategies.
const (
	// StrategyMemOpt inverts on the owner and broadcasts inverses.
	StrategyMemOpt Strategy = iota
	// StrategyCommOpt inverts redundantly on every worker.
	StrategyCommOpt
	// StrategyHybrid picks per layer by HybridBudgetBytes.
	StrategyHybrid
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyMemOpt:
		return "mem-opt"
	case StrategyCommOpt:
		return "comm-opt"
	default:
		return "hybrid"
	}
}

// layerCommOpt decides whether layer i runs communication-optimally under
// the configured strategy: under Hybrid, layers are admitted greedily (in
// index order) while the accumulated factor state fits the budget.
func (k *KFAC) layerCommOpt(i int) bool {
	switch k.Strategy {
	case StrategyCommOpt:
		return true
	case StrategyMemOpt:
		return false
	}
	// Hybrid: admit while cumulative factor bytes stay within budget.
	var used float64
	for j := 0; j <= i; j++ {
		dIn, dOut := k.Layers[j].Dims()
		used += 8 * float64(dIn*dIn+dOut*dOut)
		if j == i {
			return used <= float64(k.HybridBudgetBytes)
		}
		if used > float64(k.HybridBudgetBytes) {
			return false
		}
	}
	return false
}

// piCorrection returns the Tikhonov damping split of the original KFAC
// paper: γ_A = π·√γ and γ_G = √γ/π with π² = (tr(A)/dim_A)/(tr(G)/dim_G),
// which balances the two Kronecker factors' scales. Degenerate traces fall
// back to the symmetric split π = 1.
func piCorrection(trA float64, dimA int, trG float64, dimG int, damping float64) (gA, gG float64) {
	root := math.Sqrt(damping)
	if trA <= 0 || trG <= 0 || dimA <= 0 || dimG <= 0 {
		return root, root
	}
	pi := math.Sqrt((trA / float64(dimA)) / (trG / float64(dimG)))
	if math.IsNaN(pi) || math.IsInf(pi, 0) || pi <= 0 {
		return root, root
	}
	return pi * root, root / pi
}
