package mat

// The column-oriented pivoted-QR factorization and the interpolative
// decompositions built on it, exactly as they stood before the row-ID
// kernel of qr.go replaced them (identifiers prefixed, nothing else
// changed). Kept as the bit-level reference: the row kernel must reproduce
// P, S, R, Perm and NumericalRank of this code by math.Float64bits.

import (
	"fmt"
	"math"
	"testing"
)

// oracleQRPivot holds a column-pivoted Householder QR factorization
// a*Π = Q*R, with qr packing the Householder vectors below the diagonal
// and R on and above it, following the LAPACK dgeqp3 layout.
type oracleQRPivot struct {
	qr   *Dense
	tau  []float64
	perm []int // perm[k] = original column index now in position k
}

// oracleFactorQRPivot computes a column-pivoted QR factorization of a.
// a is not modified.
func oracleFactorQRPivot(a *Dense) *oracleQRPivot {
	return oracleFactorQRPivotInPlace(a.Clone())
}

// oracleFactorQRPivotInPlace factors qr destructively, taking ownership of its
// storage; the hot path pairs it with oraclePutQRPivot to recycle everything.
func oracleFactorQRPivotInPlace(qr *Dense) *oracleQRPivot {
	m, n := qr.rows, qr.cols
	k := min(m, n)
	tau := GetFloats(k)
	perm := getInts(n)
	colNorm := GetFloats(n)
	defer PutFloats(colNorm)
	for j := 0; j < n; j++ {
		perm[j] = j
		colNorm[j] = oracleColNormSq(qr, j, 0)
	}
	for step := 0; step < k; step++ {
		// Pick the column with the largest remaining norm.
		p, best := step, colNorm[step]
		for j := step + 1; j < n; j++ {
			if colNorm[j] > best {
				p, best = j, colNorm[j]
			}
		}
		if p != step {
			oracleSwapCols(qr, step, p)
			perm[step], perm[p] = perm[p], perm[step]
			colNorm[step], colNorm[p] = colNorm[p], colNorm[step]
		}
		// Householder vector for column `step`, rows step..m-1.
		alpha := oracleHouseGen(qr, step, &tau[step])
		// Apply H = I - tau v vᵀ to trailing columns.
		if tau[step] != 0 {
			for j := step + 1; j < n; j++ {
				// w = vᵀ * col_j (v has implicit 1 at row `step`).
				w := qr.At(step, j)
				for i := step + 1; i < m; i++ {
					w += qr.At(i, step) * qr.At(i, j)
				}
				w *= tau[step]
				qr.Set(step, j, qr.At(step, j)-w)
				for i := step + 1; i < m; i++ {
					qr.Set(i, j, qr.At(i, j)-w*qr.At(i, step))
				}
			}
		}
		qr.Set(step, step, alpha)
		// Downdate column norms.
		for j := step + 1; j < n; j++ {
			v := qr.At(step, j)
			colNorm[j] -= v * v
			if colNorm[j] < 1e-12*math.Abs(colNorm[j])+1e-300 || colNorm[j] < 0 {
				colNorm[j] = oracleColNormSq(qr, j, step+1)
			}
		}
	}
	return &oracleQRPivot{qr: qr, tau: tau, perm: perm}
}

// oracleHouseGen builds the Householder reflector that annihilates column `step`
// below the diagonal; the vector is stored in rows step+1.. with an
// implicit leading 1, and the resulting diagonal entry of R is returned.
func oracleHouseGen(qr *Dense, step int, tau *float64) float64 {
	m := qr.rows
	var normSq float64
	x0 := qr.At(step, step)
	for i := step + 1; i < m; i++ {
		v := qr.At(i, step)
		normSq += v * v
	}
	if normSq == 0 {
		*tau = 0
		return x0
	}
	beta := math.Sqrt(x0*x0 + normSq)
	if x0 > 0 {
		beta = -beta
	}
	*tau = (beta - x0) / beta
	scale := 1 / (x0 - beta)
	for i := step + 1; i < m; i++ {
		qr.Set(i, step, qr.At(i, step)*scale)
	}
	return beta
}

func oracleColNormSq(m *Dense, j, from int) float64 {
	var s float64
	for i := from; i < m.rows; i++ {
		v := m.At(i, j)
		s += v * v
	}
	return s
}

func oracleSwapCols(m *Dense, a, b int) {
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		row[a], row[b] = row[b], row[a]
	}
}

// oraclePutQRPivot recycles a factorization built by oracleFactorQRPivotInPlace. Only
// safe when nothing returned from the factorization object escapes.
func oraclePutQRPivot(f *oracleQRPivot) {
	PutDense(f.qr)
	PutFloats(f.tau)
	putInts(f.perm)
	f.qr, f.tau, f.perm = nil, nil, nil
}

// Perm returns the column permutation (position -> original column index).
func (f *oracleQRPivot) Perm() []int { return f.perm }

// NumericalRank returns the numerical rank detected from the pivoted-QR
// diagonal: the largest k such that |R(k-1,k-1)| > tol·|R(0,0)|. Column
// pivoting makes the diagonal magnitudes non-increasing, so the first
// diagonal entry that decays below the relative tolerance marks the rank.
// A non-positive tol disables detection (full rank min(m,n) is returned);
// an all-zero or non-finite leading diagonal reports rank 0.
func (f *oracleQRPivot) NumericalRank(tol float64) int {
	k := min(f.qr.rows, f.qr.cols)
	if k == 0 {
		return 0
	}
	d0 := math.Abs(f.qr.At(0, 0))
	if d0 == 0 || math.IsNaN(d0) || math.IsInf(d0, 0) {
		return 0
	}
	if tol <= 0 {
		return k
	}
	for i := 1; i < k; i++ {
		d := math.Abs(f.qr.At(i, i))
		if math.IsNaN(d) || d <= tol*d0 {
			return i
		}
	}
	return k
}

// R returns the upper-triangular factor (k×n, k = min(m,n)).
func (f *oracleQRPivot) R() *Dense {
	m, n := f.qr.rows, f.qr.cols
	return f.rInto(NewDense(min(m, n), n))
}

// rInto writes the upper-triangular factor into r (pre-zeroed k×n).
func (f *oracleQRPivot) rInto(r *Dense) *Dense {
	n := f.qr.cols
	k := min(f.qr.rows, n)
	for i := 0; i < k; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, f.qr.At(i, j))
		}
	}
	return r
}

// Q returns the thin orthogonal factor (m×k).
func (f *oracleQRPivot) Q() *Dense {
	m := f.qr.rows
	k := len(f.tau)
	q := NewDense(m, k)
	for i := 0; i < k; i++ {
		q.Set(i, i, 1)
	}
	// Apply H_k ... H_1 to the identity from the left, in reverse order.
	for step := k - 1; step >= 0; step-- {
		t := f.tau[step]
		if t == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			w := q.At(step, j)
			for i := step + 1; i < m; i++ {
				w += f.qr.At(i, step) * q.At(i, j)
			}
			w *= t
			q.Set(step, j, q.At(step, j)-w)
			for i := step + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-w*f.qr.At(i, step))
			}
		}
	}
	return q
}

// oracleInterpolativeDecompTol is InterpolativeDecomp with numerical-rank
// truncation: when tol > 0 and the pivoted-QR diagonal decays below
// tol·|R(0,0)| before reaching r, the returned factorization truncates to
// the detected rank (at least 1). Duplicated or near-collinear batch rows
// make the Gram matrix numerically rank-deficient — truncating keeps the
// back-substitution for the interpolation coefficients away from the
// noise-level pivots that would otherwise amplify into the factors.
func oracleInterpolativeDecompTol(q *Dense, r int, tol float64) (p *Dense, s []int) {
	m := q.rows
	r = min(r, min(m, q.cols))
	if r <= 0 {
		return NewDense(m, 0), nil
	}
	qt := getDenseRaw(q.cols, q.rows)
	q.TInto(qt)
	// Column ID of qᵀ ≡ row ID of q; the factorization takes ownership of
	// qt and oraclePutQRPivot below recycles it.
	f := oracleFactorQRPivotInPlace(qt)
	if tol > 0 {
		if nr := f.NumericalRank(tol); nr < r {
			r = max(nr, 1)
		}
	}
	perm := f.perm
	s = append([]int(nil), perm[:r]...)

	// R = [R11 R12] with R11 r×r upper-triangular. The interpolation
	// coefficients are T = R11⁻¹ R12 (r × (m-r)), giving
	// qᵀ Π ≈ (qᵀ)_S [I T]  ⇒  q ≈ Πᵀ [I; Tᵀ] q_S.
	rm := f.rInto(GetDense(min(qt.rows, qt.cols), qt.cols))
	t := GetDense(r, m-r)
	col := GetFloats(r)
	for j := 0; j < m-r; j++ {
		// Back-substitute R11 * x = R12[:, j].
		for i := 0; i < r; i++ {
			col[i] = rm.At(i, r+j)
		}
		for i := r - 1; i >= 0; i-- {
			sum := col[i]
			for k := i + 1; k < r; k++ {
				sum -= rm.At(i, k) * t.At(k, j)
			}
			d := rm.At(i, i)
			if d == 0 {
				t.Set(i, j, 0)
				continue
			}
			t.Set(i, j, sum/d)
		}
	}
	PutFloats(col)
	PutDense(rm)
	// Assemble P: row perm[k] of P is e_k for k<r, and row perm[r+j] is
	// the j-th column of T.
	p = NewDense(m, r)
	for k := 0; k < r; k++ {
		p.Set(perm[k], k, 1)
	}
	for j := 0; j < m-r; j++ {
		dst := p.Row(perm[r+j])
		for k := 0; k < r; k++ {
			dst[k] = t.At(k, j)
		}
	}
	PutDense(t)
	oraclePutQRPivot(f)
	return p, s
}

// oracleRandomizedIDInto is RandomizedIDInto as it stood: the same sketch,
// then the transposed copy, all k strided steps and a private copy of the
// back-substitution and P-assembly.
func oracleRandomizedIDInto(p *Dense, s []int, rng *RNG, q *Dense, r, oversample int, kind SketchKind) (pOut *Dense, sOut []int, cond float64) {
	m, n := q.Dims()
	r = min(r, min(m, n))
	if r <= 0 {
		p = EnsureDense(p, m, 0)
		return p, s[:0], 1
	}
	if oversample < 1 {
		oversample = 1
	}
	k := r + oversample
	if k > n {
		k = n
	}
	y := sketchColsInto(getDenseRaw(m, k), rng, q, kind)
	// Pivoted QR on yᵀ ranks the rows of q by their sketched leverage. The
	// factorization takes ownership of yt; oraclePutQRPivot recycles it.
	yt := getDenseRaw(k, m)
	y.TInto(yt)
	PutDense(y)
	f := oracleFactorQRPivotInPlace(yt)
	perm := f.perm
	d0 := math.Abs(f.qr.At(0, 0))
	dr := math.Abs(f.qr.At(r-1, r-1))
	switch {
	case math.IsNaN(d0) || math.IsNaN(dr):
		cond = math.NaN()
	case d0 == 0 || dr == 0 || math.IsInf(d0, 0):
		cond = math.Inf(1)
	default:
		cond = d0 / dr
	}
	// Interpolation coefficients against the selected rows are computed on
	// the sketch: back-substitute R11·T = R12 reading the packed R factor
	// directly, giving q ≈ Tᵀ·q[S,:] in the sketched geometry.
	t := getDenseRaw(r, m-r)
	col := getFloatsRaw(r)
	for j := 0; j < m-r; j++ {
		for i := 0; i < r; i++ {
			col[i] = f.qr.At(i, r+j)
		}
		for i := r - 1; i >= 0; i-- {
			sum := col[i]
			for kk := i + 1; kk < r; kk++ {
				sum -= f.qr.At(i, kk) * t.At(kk, j)
			}
			d := f.qr.At(i, i)
			if d == 0 {
				t.Set(i, j, 0)
				continue
			}
			t.Set(i, j, sum/d)
		}
	}
	PutFloats(col)
	p = EnsureDense(p, m, r)
	p.Zero()
	for kk := 0; kk < r; kk++ {
		p.Set(perm[kk], kk, 1)
	}
	for j := 0; j < m-r; j++ {
		dst := p.Row(perm[r+j])
		for kk := 0; kk < r; kk++ {
			dst[kk] = t.At(kk, j)
		}
	}
	PutDense(t)
	if cap(s) >= r {
		s = s[:r]
	} else {
		s = make([]int, r)
	}
	copy(s, perm[:r])
	oraclePutQRPivot(f)
	return p, s, cond
}

// sameValue is bit equality, except that any NaN equals any NaN: which
// operand's payload a NaN product keeps is the compiler's choice (an
// instrumented -fuzz build picks differently from a plain one), so NaN
// bits are not a property of the algorithm.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameOracle(t *testing.T, name string, want, got *Dense) {
	t.Helper()
	if want.rows != got.rows || want.cols != got.cols {
		t.Fatalf("%s: dims %dx%d vs %dx%d", name, want.rows, want.cols, got.rows, got.cols)
	}
	for i, w := range want.data {
		if !sameValue(w, got.data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, w, got.data[i])
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkRowIDOracle holds every consumer of the row kernel against the
// oracle on one input: the full FactorQRPivot API once, then for each rank
// and tolerance the exact ID and the truncated factorization it reads
// (rows 0..r-1 of R, the leading permutation, the rank decision).
func checkRowIDOracle(t *testing.T, q *Dense, ranks []int) {
	t.Helper()
	want := oracleFactorQRPivot(q.T())
	full := FactorQRPivot(q.T())
	if !sameInts(full.Perm(), want.Perm()) {
		t.Fatalf("Perm = %v, oracle %v", full.Perm(), want.Perm())
	}
	sameOracle(t, "R", want.R(), full.R())
	sameOracle(t, "Q", want.Q(), full.Q())
	// A column of R follows its pivot, so columns are matched by original
	// index: past the truncation point the two permutations differ.
	pos := make([]int, len(want.perm))
	for k, orig := range want.perm {
		pos[orig] = k
	}
	for _, r := range ranks {
		for _, tol := range []float64{0, 1e-12} {
			wantP, wantS := oracleInterpolativeDecompTol(q, r, tol)
			gotP, gotS := InterpolativeDecompTol(q, r, tol)
			if !sameInts(gotS, wantS) {
				t.Fatalf("r=%d tol=%g: S = %v, oracle %v", r, tol, gotS, wantS)
			}
			sameOracle(t, "P", wantP, gotP)

			if got, o := full.NumericalRank(tol), want.NumericalRank(tol); got != o {
				t.Fatalf("NumericalRank(%g) = %d, oracle %d", tol, got, o)
			}
			steps := min(max(r, 0), min(q.rows, q.cols))
			f := factorRowsOf(q, steps)
			if !sameInts(f.perm[:steps], want.perm[:steps]) {
				t.Fatalf("r=%d: truncated perm %v, oracle %v", r, f.perm[:steps], want.perm[:steps])
			}
			for i := 0; i < steps; i++ {
				for j := i; j < q.rows; j++ {
					g, o := f.qt.At(j, i), want.qr.At(i, pos[f.perm[j]])
					if !sameValue(g, o) {
						t.Fatalf("r=%d: R(%d, column of row %d) = %g, oracle %g", r, i, f.perm[j], g, o)
					}
				}
			}
			if got, o := f.NumericalRank(tol), min(want.NumericalRank(tol), steps); got != o {
				t.Fatalf("r=%d: truncated NumericalRank(%g) = %d, oracle %d", r, tol, got, o)
			}
			f.put()
		}
	}
}

// oracleFactorRows is factorRowsInPlace as it stood before the four-row
// sweep: per trailing row one sequential dot and one scalar Go update.
func oracleFactorRows(w *Dense, steps int) QRPivot {
	n := w.rows
	tau, perm, norm := make([]float64, steps), make([]int, n), make([]float64, n)
	for j := 0; j < n; j++ {
		perm[j] = j
		norm[j] = normSq(w.Row(j))
	}
	for step := 0; step < steps; step++ {
		p, best := step, norm[step]
		for j := step + 1; j < n; j++ {
			if norm[j] > best {
				p, best = j, norm[j]
			}
		}
		if p != step {
			rs, rp := w.Row(step), w.Row(p)
			for i := range rs {
				rs[i], rp[i] = rp[i], rs[i]
			}
			perm[step], perm[p] = perm[p], perm[step]
			norm[step], norm[p] = norm[p], norm[step]
		}
		v := w.Row(step)[step:]
		alpha := houseGen(v, &tau[step])
		t, vt := tau[step], v[1:]
		for j := step + 1; j < n; j++ {
			x := w.Row(j)[step:]
			if t != 0 {
				xt := x[1 : 1+len(vt)]
				s := x[0]
				for i, vi := range vt {
					s += vi * xt[i]
				}
				s *= t
				x[0] -= s
				for i, vi := range vt {
					xt[i] -= s * vi
				}
			}
			norm[j] -= x[0] * x[0]
			if norm[j] < 1e-12*math.Abs(norm[j])+1e-300 || norm[j] < 0 {
				norm[j] = normSq(x[1:])
			}
		}
		v[0] = alpha
	}
	return QRPivot{qt: w, tau: tau, perm: perm}
}

// TestRowSweepOracle holds factorRowsInPlace, and InterpolativeDecompInto
// on it, to oracleFactorRows by math.Float64bits — w, τ, perm, P and S —
// with and without the assembly: the sweep rounds every product apart
// from its sum, outside the fused kernels. The row counts
// cover every remainder mod 4 of the four-row groups; "diag" and "zero
// rows" take τ = 0 steps, "dup" the norm recompute, "nan" a poisoned row.
func TestRowSweepOracle(t *testing.T) {
	rng := NewRNG(41)
	inputs := map[string]*Dense{}
	for _, n := range []int{28, 29, 30, 31, 66, 1} {
		inputs[fmt.Sprintf("random %dx40", n)] = RandN(rng, n, 40, 1)
	}
	diag := NewDense(33, 33)
	for i := 0; i < 33; i++ {
		diag.Set(i, i, float64(1+i%7))
	}
	zero := RandN(rng, 38, 30, 1)
	clear(zero.data[8*30:])
	dup := RandN(rng, 45, 27, 1)
	for i := 6; i < 45; i++ {
		copy(dup.Row(i), dup.Row(i%6))
	}
	nan := RandN(rng, 35, 50, 1)
	for j := range nan.Row(9) {
		nan.Set(9, j, math.NaN())
	}
	inputs["diag"], inputs["zero rows"], inputs["dup"], inputs["nan"] = diag, zero, dup, nan
	for name, q := range inputs {
		for _, steps := range []int{1, 5, 25, min(q.rows, q.cols)} {
			steps = min(steps, q.rows, q.cols)
			want := oracleFactorRows(q.Clone(), steps)
			wantP, wantS := want.idInto(nil, nil, steps)
			inFusedFamily(t, func(t *testing.T) {
				for _, impl := range kernelImpls {
					name := fmt.Sprintf("%s steps=%d %s", name, steps, impl.name)
					var f QRPivot
					impl.with(func() { f = factorRowsInPlace(q.Clone(), steps) })
					sameOracle(t, name+" w", want.qt, f.qt)
					sameOracle(t, name+" τ", NewDenseData(1, steps, want.tau), NewDenseData(1, steps, f.tau))
					if !sameInts(f.perm, want.perm) {
						t.Fatalf("%s: perm %v, oracle %v", name, f.perm, want.perm)
					}
					var p *Dense
					var s []int
					impl.with(func() { p, s = InterpolativeDecompInto(nil, nil, q, steps, 0) })
					if !sameInts(s, wantS) {
						t.Fatalf("%s: S %v, oracle %v", name, s, wantS)
					}
					sameOracle(t, name+" P", wantP, p)
				}
			})
		}
	}
}

// TestRandomizedIDFamilyFree checks that the sketched ID on an SRHT sketch,
// which multiplies nothing in the fused kernels, gives the same bits with
// and without the assembly.
func TestRandomizedIDFamilyFree(t *testing.T) {
	for _, dims := range [][3]int{{64, 64, 6}, {128, 128, 12}, {61, 90, 25}} {
		q := RandN(NewRNG(uint64(dims[0])), dims[0], dims[1], 1)
		var wantP *Dense
		var wantS []int
		for _, impl := range kernelImpls {
			var p *Dense
			var s []int
			impl.with(func() { p, s, _ = RandomizedIDInto(nil, nil, NewRNG(5), q, dims[2], 8, SketchSRHT) })
			if wantP == nil {
				wantP, wantS = p, s
				continue
			}
			name := fmt.Sprintf("%v %s", dims, impl.name)
			if !sameInts(s, wantS) {
				t.Fatalf("%s: S %v, want %v", name, s, wantS)
			}
			sameOracle(t, name, wantP, p)
		}
	}
}

// inFusedFamily runs fn as the subtest "HYLO_FMA=1". The kernels compute in
// fused multiply-add only; the oracle subtests keep the name that family
// carried while an environment variable chose between it and mul+add, so
// their results line up across versions.
func inFusedFamily(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	t.Run("HYLO_FMA=1", fn)
}

func TestRowIDOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		for _, m := range []int{1, 2, 17, 64, 128, 256} {
			if testing.Short() && m > 64 {
				continue
			}
			shapes := map[string]int{"square": m, "tall": (m + 1) / 2, "wide": 2 * m}
			for name, n := range shapes {
				q := RandN(NewRNG(uint64(1000*m+n)), m, n, 1)
				t.Run(fmt.Sprintf("%s%dx%d", name, m, n), func(t *testing.T) { checkRowIDOracle(t, q, []int{1, m / 10, m / 4, m}) })
			}
		}
	})
}

// TestRowIDOracleDegenerate covers the inputs where the guards decide the
// answer: duplicated rows (the rank collapses and the ID truncates to the
// detected rank), an all-zero matrix, and NaN/Inf-poisoned input.
func TestRowIDOracleDegenerate(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		rng := NewRNG(77)
		dup := RandN(rng, 40, 40, 1)
		for i := 5; i < 40; i++ {
			copy(dup.Row(i), dup.Row(i%5))
		}
		if p, _ := InterpolativeDecompTol(dup, 12, 1e-12); p.Cols() != 5 {
			t.Fatalf("duplicated rows: rank %d, want truncation to 5", p.Cols())
		}
		nan := RandN(rng, 24, 30, 1)
		nan.Set(7, 3, math.NaN())
		inf := RandN(rng, 30, 24, 1)
		inf.Set(2, 9, math.Inf(1))
		inf.Set(11, 0, math.Inf(-1))
		for name, q := range map[string]*Dense{"dup": dup, "zero": NewDense(16, 16), "nan": nan, "inf": inf} {
			t.Run(name, func(t *testing.T) { checkRowIDOracle(t, q, []int{1, 4, 12, 64}) })
		}
	})
}

// TestRandomizedIDOracle pins the sketched ID, which now runs r steps on
// the sketch's rows where it ran all r+oversample on a transposed copy.
func TestRandomizedIDOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		for _, kind := range []SketchKind{SketchGauss, SketchSRHT} {
			for _, dims := range [][4]int{{1, 1, 1, 4}, {17, 9, 5, 3}, {64, 64, 6, 8}, {128, 128, 12, 8}, {60, 200, 60, 10}} {
				q := RandN(NewRNG(uint64(dims[0])), dims[0], dims[1], 1)
				wantP, wantS, wantC := oracleRandomizedIDInto(nil, nil, NewRNG(5), q, dims[2], dims[3], kind)
				gotP, gotS, gotC := RandomizedIDInto(nil, nil, NewRNG(5), q, dims[2], dims[3], kind)
				if !sameInts(gotS, wantS) || !sameValue(gotC, wantC) {
					t.Fatalf("kind %d dims %v: S %v cond %g, oracle %v %g", kind, dims, gotS, gotC, wantS, wantC)
				}
				sameOracle(t, "sketched P", wantP, gotP)
			}
		}
	})
}
