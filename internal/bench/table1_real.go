package bench

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
)

// Table1RealMeasured validates the Table I complexity claims against the
// REAL implementations (not the analytic cost model): it times KIDFactors,
// KISFactors, kernel inversion, and the KFAC-style eigendecomposition on
// doubling problem sizes and reports the observed wall-clock scaling
// exponents. Exponents are noisier than the analytic sweep (allocator,
// cache effects), so the table is informative rather than test-asserted to
// tight bounds.
func Table1RealMeasured(cfg RunConfig) *Table {
	t := &Table{ID: "table1-real", Title: "Complexity verification on real kernels (wall clock)",
		Headers: []string{"kernel", "theory", "sizes", "measured exponent"}}
	lo, hi := 128, 512
	if cfg.Quick {
		lo, hi = 64, 256
	}
	timeIt := func(f func()) float64 {
		// Best of 3 to suppress scheduling noise.
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			f()
			if d := time.Since(start).Seconds(); d < best {
				best = d
			}
		}
		return best
	}
	expOf := func(tLo, tHi float64) string {
		return fmtF(math.Log2(tHi/tLo) / math.Log2(float64(hi)/float64(lo)))
	}
	sizes := func() string { return fmtF(float64(lo)) + "->" + fmtF(float64(hi)) }
	rng := mat.NewRNG(cfg.Seed + 80)

	// KID factorization vs m at fixed d: theory O(m²d + m³) → ≈3 once the
	// residual inverse dominates.
	d := 32
	run := func(m int, f func(a, g *mat.Dense)) float64 {
		a := mat.RandN(rng, m, d, 1)
		g := mat.RandN(rng, m, d, 1)
		return timeIt(func() { f(a, g) })
	}
	kid := func(a, g *mat.Dense) { core.KIDFactors(a, g, a.Rows()/10, 0.1) }
	t.AddRow("KID factorization vs m", "3", sizes(), expOf(run(lo, kid), run(hi, kid)))

	// KIS scoring vs m: theory O(m·d) → ≈1.
	kis := func(a, g *mat.Dense) { core.KISFactors(rng, a, g, a.Rows()/10, true) }
	t.AddRow("KIS sampling vs m", "1", sizes(), expOf(run(lo, kis), run(hi, kis)))

	// Kernel inversion vs m: theory O(m³).
	inv := func(a, g *mat.Dense) {
		mat.InvSPDDamped(mat.KernelMatrix(a, g).AddDiag(0.1), 0)
	}
	t.AddRow("SNGD kernel inversion vs m", "3", sizes(), expOf(run(lo, inv), run(hi, inv)))

	// KFAC eigendecomposition vs d: theory O(d³).
	eig := func(n int) float64 {
		a := mat.RandSPD(rng, n, 0.5)
		return timeIt(func() { mat.SymEigInto(nil, nil, a) })
	}
	t.AddRow("eigendecomposition vs d", "3", sizes(), expOf(eig(lo), eig(hi)))

	t.AddNote("wall-clock best-of-3 on doubling sizes %d->%d; noisier than the analytic sweep of table1", lo, hi)
	return t
}
