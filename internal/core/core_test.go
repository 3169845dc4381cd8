package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/mat"
)

func TestKIDFactorsShapes(t *testing.T) {
	rng := mat.NewRNG(1)
	a := mat.RandN(rng, 16, 5, 1)
	g := mat.RandN(rng, 16, 7, 1)
	as, gs, y, err := KIDFactors(a, g, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if as.Rows() != 4 || as.Cols() != 5 {
		t.Fatalf("as dims %dx%d; want 4x5", as.Rows(), as.Cols())
	}
	if gs.Rows() != 4 || gs.Cols() != 7 {
		t.Fatalf("gs dims %dx%d; want 4x7", gs.Rows(), gs.Cols())
	}
	if y.Rows() != 4 || y.Cols() != 4 {
		t.Fatalf("y dims %dx%d; want 4x4", y.Rows(), y.Cols())
	}
}

func TestKIDRankClamp(t *testing.T) {
	rng := mat.NewRNG(2)
	a := mat.RandN(rng, 6, 3, 1)
	g := mat.RandN(rng, 6, 3, 1)
	as, _, _, err := KIDFactors(a, g, 100, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if as.Rows() != 6 {
		t.Fatalf("clamped rank = %d; want 6", as.Rows())
	}
}

// Full-rank KID must reproduce the exact SNGD preconditioner: at r = m the
// ID is a permutation, the residue vanishes, and Eq. (8) collapses to
// Eq. (7). This validates both the KID algebra and the M = (I+YK̂)⁻¹Y form.
func TestKIDFullRankMatchesExact(t *testing.T) {
	rng := mat.NewRNG(3)
	m, dIn, dOut := 10, 4, 3
	a := mat.RandN(rng, m, dIn, 1)
	g := mat.RandN(rng, m, dOut, 1)
	grad := make([]float64, dIn*dOut)
	for i := range grad {
		grad[i] = rng.Norm()
	}
	exact, err := PreconditionExact(a, g, grad, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	kid, err := PreconditionReduced(a, g, grad, 0.3, m, ModeKID, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := range exact {
		if math.Abs(exact[j]-kid[j]) > 1e-6*(1+math.Abs(exact[j])) {
			t.Fatalf("full-rank KID[%d] = %g; exact = %g", j, kid[j], exact[j])
		}
	}
}

// Full-sample KIS without rescaling is also an exact permutation of the
// factors; with rescaling the r=m weights differ, so test the plain form
// through KISFactors + manual application.
func TestKISFullSampleSelectsAllRows(t *testing.T) {
	rng := mat.NewRNG(4)
	a := mat.RandN(rng, 8, 3, 1)
	g := mat.RandN(rng, 8, 3, 1)
	as, gs := KISFactors(rng, a, g, 8, false)
	if as.Rows() != 8 || gs.Rows() != 8 {
		t.Fatalf("full-sample KIS rows = %d,%d; want 8,8", as.Rows(), gs.Rows())
	}
	// Every original row must appear exactly once (match by content).
	used := make([]bool, 8)
	for k := 0; k < 8; k++ {
		found := -1
		for j := 0; j < 8; j++ {
			if used[j] {
				continue
			}
			same := true
			for c := 0; c < 3; c++ {
				if as.At(k, c) != a.At(j, c) {
					same = false
					break
				}
			}
			if same {
				found = j
				break
			}
		}
		if found < 0 {
			t.Fatalf("KIS row %d not found among originals", k)
		}
		used[found] = true
	}
}

func TestKISPrefersHighNormRows(t *testing.T) {
	// One row dominates the norms: it must (almost) always be selected.
	a := mat.NewDense(10, 2)
	g := mat.NewDense(10, 2)
	for i := 0; i < 10; i++ {
		a.Set(i, 0, 0.01)
		g.Set(i, 0, 0.01)
	}
	a.Set(3, 0, 100)
	g.Set(3, 0, 100)
	hits := 0
	for trial := 0; trial < 50; trial++ {
		rng := mat.NewRNG(uint64(trial) + 1)
		as, _ := KISFactors(rng, a, g, 1, false)
		if as.At(0, 0) == 100 {
			hits++
		}
	}
	if hits < 48 {
		t.Fatalf("dominant row selected %d/50 times; want ≥48", hits)
	}
}

func TestKISZeroScoresFallsBackToUniform(t *testing.T) {
	rng := mat.NewRNG(5)
	a := mat.NewDense(6, 2)
	g := mat.NewDense(6, 2)
	as, gs := KISFactors(rng, a, g, 3, true)
	if as.Rows() != 3 || gs.Rows() != 3 {
		t.Fatalf("zero-score KIS rows = %d; want 3", as.Rows())
	}
	for _, v := range as.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("zero-score KIS produced non-finite values")
		}
	}
}

// The kernel built from rescaled KIS factors must be an approximately
// unbiased estimate of the full kernel (Drineas et al.): averaging many
// draws should converge to K.
func TestKISKernelApproxUnbiased(t *testing.T) {
	base := mat.NewRNG(6)
	a := mat.RandN(base, 24, 4, 1)
	g := mat.RandN(base, 24, 4, 1)
	full := mat.KernelMatrix(a, g)
	var traceSum float64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		rng := mat.NewRNG(uint64(trial)*13 + 7)
		as, gs := KISFactors(rng, a, g, 8, true)
		traceSum += mat.KernelMatrix(as, gs).Trace()
	}
	est := traceSum / trials
	want := full.Trace()
	if math.Abs(est-want)/want > 0.15 {
		t.Fatalf("mean sampled kernel trace = %g; full = %g (bias too large)", est, want)
	}
}

func TestGradErrorDecreasesWithRank(t *testing.T) {
	rng := mat.NewRNG(7)
	// Low-rank structure: factors driven by few latent directions.
	lat := mat.RandN(rng, 32, 3, 1)
	a := mat.Mul(lat, mat.RandN(rng, 3, 6, 1))
	g := mat.Mul(lat, mat.RandN(rng, 3, 5, 1))
	grad := make([]float64, 30)
	for i := range grad {
		grad[i] = rng.Norm()
	}
	e4 := GradError(a, g, grad, 0.1, 4, ModeKID, rng)
	e16 := GradError(a, g, grad, 0.1, 16, ModeKID, rng)
	if e16 > e4+1e-9 {
		t.Fatalf("KID error grew with rank: r=4 %g, r=16 %g", e4, e16)
	}
	// At rank ≥ true kernel rank the KID error must be tiny.
	if e16 > 1e-6 {
		t.Fatalf("KID error %g at rank ≥ true rank; want ≈0", e16)
	}
}

// Fig. 12's qualitative claim: KID error is (much) smaller than KIS error
// at the same rank on low-rank kernels.
func TestKIDMoreAccurateThanKIS(t *testing.T) {
	rng := mat.NewRNG(8)
	// Latent rank 2 ⇒ kernel rank ≤ 4 (Schur product squares the rank),
	// comfortably below the reduction rank 8.
	lat := mat.RandN(rng, 40, 2, 1)
	a := mat.Mul(lat, mat.RandN(rng, 2, 8, 1))
	g := mat.Mul(lat, mat.RandN(rng, 2, 6, 1))
	grad := make([]float64, 48)
	for i := range grad {
		grad[i] = rng.Norm()
	}
	var kidSum, kisSum float64
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		tr := mat.NewRNG(uint64(trial) + 100)
		kidSum += GradError(a, g, grad, 0.1, 8, ModeKID, tr)
		kisSum += GradError(a, g, grad, 0.1, 8, ModeKIS, tr)
	}
	if kidSum >= kisSum {
		t.Fatalf("KID mean error %g not below KIS %g", kidSum/trials, kisSum/trials)
	}
}

func TestGradientSwitchPolicy(t *testing.T) {
	p := GradientSwitch{Eta: 0.25}
	rng := mat.NewRNG(1)
	if got := p.Choose(0, false, math.NaN(), rng); got != ModeKID {
		t.Fatal("no-history epoch should choose KID")
	}
	if got := p.Choose(5, true, 0.01, rng); got != ModeKID {
		t.Fatal("LR-decay epoch should choose KID")
	}
	if got := p.Choose(5, false, 0.5, rng); got != ModeKID {
		t.Fatal("R ≥ η should choose KID")
	}
	if got := p.Choose(5, false, 0.1, rng); got != ModeKIS {
		t.Fatal("stable epoch should choose KIS")
	}
}

func TestRandomSwitchRoughlyFair(t *testing.T) {
	rng := mat.NewRNG(9)
	kid := 0
	for i := 0; i < 1000; i++ {
		if (RandomSwitch{}).Choose(i, false, 0.1, rng) == ModeKID {
			kid++
		}
	}
	if kid < 400 || kid > 600 {
		t.Fatalf("RandomSwitch chose KID %d/1000; want ≈500", kid)
	}
}

func TestFixedSwitch(t *testing.T) {
	rng := mat.NewRNG(10)
	if (FixedSwitch{Mode: ModeKIS}).Choose(3, true, 9, rng) != ModeKIS {
		t.Fatal("FixedSwitch ignored its mode")
	}
}

func TestModeString(t *testing.T) {
	if ModeKID.String() != "KID" || ModeKIS.String() != "KIS" {
		t.Fatal("Mode.String wrong")
	}
}

// Property: KID preconditioning never produces non-finite values and the
// selected indices are valid, across random shapes and ranks.
func TestKIDProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed)*97 + 31)
		m := 4 + rng.Intn(16)
		dIn := 2 + rng.Intn(5)
		dOut := 2 + rng.Intn(5)
		r := 1 + rng.Intn(m)
		a := mat.RandN(rng, m, dIn, 1)
		g := mat.RandN(rng, m, dOut, 1)
		grad := make([]float64, dIn*dOut)
		for i := range grad {
			grad[i] = rng.Norm()
		}
		out, err := PreconditionReduced(a, g, grad, 0.2, r, ModeKID, rng)
		if err != nil {
			return false
		}
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact SNGD preconditioner shrinks the gradient along
// captured directions — ‖(F+αI)⁻¹g‖ ≤ ‖g‖/α always, with equality only
// when g is orthogonal to the data span.
func TestPreconditionContractionProperty(t *testing.T) {
	f := func(seed uint16) bool {
		rng := mat.NewRNG(uint64(seed)*53 + 11)
		m := 3 + rng.Intn(10)
		d := 2 + rng.Intn(4)
		a := mat.RandN(rng, m, d, 1)
		g := mat.RandN(rng, m, d, 1)
		grad := make([]float64, d*d)
		for i := range grad {
			grad[i] = rng.Norm()
		}
		alpha := 0.5
		out, err := PreconditionExact(a, g, grad, alpha)
		if err != nil {
			return false
		}
		return mat.Norm2(out) <= mat.Norm2(grad)/alpha*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Full-rank Nyström reduces exactly to Eq. (7): with S covering all rows,
// C = K and W = K, and the Woodbury form collapses to (K+αI)⁻¹.
func TestNystromFullRankMatchesExact(t *testing.T) {
	rng := mat.NewRNG(110)
	m, dIn, dOut := 10, 4, 3
	a := mat.RandN(rng, m, dIn, 1)
	g := mat.RandN(rng, m, dOut, 1)
	grad := make([]float64, dIn*dOut)
	for i := range grad {
		grad[i] = rng.Norm()
	}
	exact, err := PreconditionExact(a, g, grad, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	nys, err := PreconditionNystrom(a, g, grad, 0.4, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := range exact {
		if math.Abs(exact[j]-nys[j]) > 1e-5*(1+math.Abs(exact[j])) {
			t.Fatalf("full-rank Nystrom[%d] = %g; exact = %g", j, nys[j], exact[j])
		}
	}
}

func TestNystromFactorsShapes(t *testing.T) {
	rng := mat.NewRNG(111)
	a := mat.RandN(rng, 12, 4, 1)
	g := mat.RandN(rng, 12, 4, 1)
	c, w, s := NystromFactors(rng, a, g, 5)
	if c.Rows() != 12 || c.Cols() != 5 || w.Rows() != 5 || w.Cols() != 5 || len(s) != 5 {
		t.Fatalf("Nystrom dims: C %dx%d, W %dx%d, |S|=%d",
			c.Rows(), c.Cols(), w.Rows(), w.Cols(), len(s))
	}
	// W must be the principal submatrix of the kernel at S.
	k := mat.KernelMatrix(a, g)
	for i, si := range s {
		for j, sj := range s {
			if math.Abs(w.At(i, j)-k.At(si, sj)) > 1e-12 {
				t.Fatal("W is not K[S,S]")
			}
		}
	}
}

func TestNystromErrorDecreasesWithRank(t *testing.T) {
	rng := mat.NewRNG(112)
	lat := mat.RandN(rng, 30, 2, 1)
	a := mat.Mul(lat, mat.RandN(rng, 2, 6, 1))
	g := mat.Mul(lat, mat.RandN(rng, 2, 5, 1))
	grad := make([]float64, 30)
	for i := range grad {
		grad[i] = rng.Norm()
	}
	exact, exErr := PreconditionExact(a, g, grad, 0.2)
	if exErr != nil {
		t.Fatal(exErr)
	}
	errAt := func(r int) float64 {
		var sum float64
		for trial := 0; trial < 5; trial++ {
			tr := mat.NewRNG(uint64(trial)*7 + 3)
			approx, aerr := PreconditionNystrom(a, g, grad, 0.2, r, tr)
			if aerr != nil {
				t.Fatal(aerr)
			}
			var num, den float64
			for j := range exact {
				d := approx[j] - exact[j]
				num += d * d
				den += exact[j] * exact[j]
			}
			sum += math.Sqrt(num / den)
		}
		return sum / 5
	}
	e2, e15 := errAt(2), errAt(15)
	if e15 > e2+1e-9 {
		t.Fatalf("Nystrom error grew with rank: r=2 %g, r=15 %g", e2, e15)
	}
}

func TestDampingAdapter(t *testing.T) {
	d := &DampingAdapter{Min: 1e-4, Max: 10}
	a := d.Observe(0.1, 1.0) // first observation: no history, unchanged
	if a != 0.1 {
		t.Fatalf("first observation changed damping to %g", a)
	}
	a = d.Observe(a, 0.8) // improved → shrink
	if a >= 0.1 {
		t.Fatalf("improving loss should shrink damping: %g", a)
	}
	a2 := d.Observe(a, 1.5) // regressed → grow
	if a2 <= a {
		t.Fatalf("regressing loss should grow damping: %g -> %g", a, a2)
	}
	// Clamps.
	d2 := &DampingAdapter{Min: 0.5, Max: 0.6}
	if got := d2.Observe(0.55, 1); got != 0.55 {
		t.Fatalf("in-range damping changed: %g", got)
	}
	d2.Observe(0.55, 2) // grow → clamp at max
	if got := d2.Observe(0.6, 3); got != 0.6 {
		t.Fatalf("max clamp failed: %g", got)
	}
}

func TestHyLoSetDamping(t *testing.T) {
	net := capturedNet(120, 8, 3, 2)
	h := NewHyLo(net, 0.1, 0.25, dist.Local(), nil, mat.NewRNG(121))
	h.SetDamping(0.05)
	if h.CurrentDamping() != 0.05 {
		t.Fatal("SetDamping ignored")
	}
	h.SetDamping(-1) // invalid: ignored
	if h.CurrentDamping() != 0.05 {
		t.Fatal("negative damping accepted")
	}
}

// BenchmarkKIDFactors_256 measures Algorithm 2 on one 256-row layer at
// rank 25 with recycled buffers: kernel matrix, row ID, residual, damped
// solve and Y.
func BenchmarkKIDFactors_256(b *testing.B) {
	rng := mat.NewRNG(7)
	a := mat.RandN(rng, 256, 257, 1)
	g := mat.RandN(rng, 256, 256, 1)
	var ws kidWS
	var as, gs, y *mat.Dense
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as, gs, y, err = kidFactorsInto(&ws, as, gs, y, a, g, 25, 0.1, DefaultIDTol); err != nil {
			b.Fatal(err)
		}
	}
}
