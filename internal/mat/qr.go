package mat

import "math"

// QRPivot holds a column-pivoted Householder QR factorization a*Π = Q*R in
// the LAPACK dgeqp3 packing, stored transposed: row j of qt is column j of
// the packed factor — R(i,j) at qt(j,i) for i ≤ j, the Householder vector
// of step k in qt(k, k+1:) — so every inner loop of the factorization walks
// contiguous memory. Only the first len(tau) steps have been run.
type QRPivot struct {
	qt   *Dense // n×m for an m×n a
	tau  []float64
	perm []int // perm[k] = original column index now in position k
}

// FactorQRPivot computes a column-pivoted QR factorization of a.
// a is not modified.
func FactorQRPivot(a *Dense) *QRPivot {
	f := factorRowsInPlace(a.T(), min(a.rows, a.cols))
	return &f
}

// factorRowsInPlace runs the first `steps` steps of the column-pivoted QR
// of wᵀ on the rows of w, destructively, taking ownership of its storage;
// the hot path pairs it with put to recycle everything. A pivot
// swaps two rows, a reflector is a row tail and the trailing update is one
// sequential dot and one sequential axpy per row. Rows 0..steps-1 of R and
// positions 0..steps-1 of the permutation are final after `steps` steps,
// which is all a rank-`steps` row ID of w reads. The accumulations are
// plain ordered loops on purpose: the selection must not depend on the
// kernel family, so no Dot/axpy helper.
func factorRowsInPlace(w *Dense, steps int) QRPivot {
	n := w.rows
	tau := GetFloats(steps)
	perm := getInts(n)
	norm := getFloatsRaw(n)
	defer PutFloats(norm)
	for j := 0; j < n; j++ {
		perm[j] = j
		norm[j] = normSq(w.Row(j))
	}
	for step := 0; step < steps; step++ {
		// Pick the row with the largest remaining norm.
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
		// Householder vector from row `step`, entries step.. (implicit 1
		// at `step`).
		v := w.Row(step)[step:]
		alpha := houseGen(v, &tau[step])
		t, vt := tau[step], v[1:]
		for j := step + 1; j < n; j++ {
			x := w.Row(j)[step:]
			// Apply H = I - tau v vᵀ to the trailing row.
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
			// Downdate the row norm.
			norm[j] -= x[0] * x[0]
			if norm[j] < 1e-12*math.Abs(norm[j])+1e-300 || norm[j] < 0 {
				norm[j] = normSq(x[1:])
			}
		}
		v[0] = alpha
	}
	return QRPivot{qt: w, tau: tau, perm: perm}
}

// factorRowsOf is factorRowsInPlace on a pooled copy of q.
func factorRowsOf(q *Dense, steps int) QRPivot {
	w := getDenseRaw(q.rows, q.cols)
	w.CopyFrom(q)
	return factorRowsInPlace(w, steps)
}

// houseGen builds the Householder reflector that annihilates v[1:]; the
// vector is stored there with an implicit leading 1, and the resulting
// diagonal entry of R is returned.
func houseGen(v []float64, tau *float64) float64 {
	x0, tail := v[0], v[1:]
	nsq := normSq(tail)
	if nsq == 0 {
		*tau = 0
		return x0
	}
	beta := math.Sqrt(x0*x0 + nsq)
	if x0 > 0 {
		beta = -beta
	}
	*tau = (beta - x0) / beta
	scale := 1 / (x0 - beta)
	for i := range tail {
		tail[i] *= scale
	}
	return beta
}

func normSq(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// put recycles a factorization built by factorRowsInPlace. Only safe when
// nothing returned from the factorization object escapes.
func (f *QRPivot) put() {
	PutDense(f.qt)
	PutFloats(f.tau)
	putInts(f.perm)
	f.qt, f.tau, f.perm = nil, nil, nil
}

// Perm returns the column permutation (position -> original column index).
func (f *QRPivot) Perm() []int { return f.perm }

// NumericalRank returns the numerical rank detected from the pivoted-QR
// diagonal: the largest k such that |R(k-1,k-1)| > tol·|R(0,0)|. Column
// pivoting makes the diagonal magnitudes non-increasing, so the first
// diagonal entry that decays below the relative tolerance marks the rank.
// A non-positive tol disables detection (full rank min(m,n) is returned);
// an all-zero or non-finite leading diagonal reports rank 0.
func (f *QRPivot) NumericalRank(tol float64) int {
	k := len(f.tau)
	if k == 0 {
		return 0
	}
	d0 := math.Abs(f.qt.At(0, 0))
	if d0 == 0 || math.IsNaN(d0) || math.IsInf(d0, 0) {
		return 0
	}
	if tol <= 0 {
		return k
	}
	for i := 1; i < k; i++ {
		d := math.Abs(f.qt.At(i, i))
		if math.IsNaN(d) || d <= tol*d0 {
			return i
		}
	}
	return k
}

// R returns the upper-triangular factor (k×n, k = min(m,n)).
func (f *QRPivot) R() *Dense {
	n := f.qt.rows
	r := NewDense(len(f.tau), n)
	for i := 0; i < r.rows; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, f.qt.At(j, i))
		}
	}
	return r
}

// Q returns the thin orthogonal factor (m×k).
func (f *QRPivot) Q() *Dense {
	m := f.qt.cols
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
		v := f.qt.Row(step)
		for j := 0; j < k; j++ {
			w := q.At(step, j)
			for i := step + 1; i < m; i++ {
				w += v[i] * q.At(i, j)
			}
			w *= t
			q.Set(step, j, q.At(step, j)-w)
			for i := step + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-w*v[i])
			}
		}
	}
	return q
}

// idInto assembles the rank-r row interpolative decomposition x ≈ p·x[s,:]
// of the matrix x whose rows f factored (r ≤ steps run), into the
// EnsureDense-style workspaces p and s. With R = [R11 R12], R11 r×r
// upper-triangular, the interpolation coefficients are T = R11⁻¹ R12, so
// xᵀΠ ≈ (xᵀ)_S [I T]  ⇒  x ≈ Πᵀ [I; Tᵀ] x_S: row perm[k] of P is e_k for
// k < r and row perm[j], j ≥ r, is the back-substituted column j of R12,
// which qt holds as the first r entries of its row j.
func (f *QRPivot) idInto(p *Dense, s []int, r int) (*Dense, []int) {
	m := f.qt.rows
	p = EnsureDense(p, m, r)
	for k := 0; k < r; k++ {
		e := p.Row(f.perm[k])
		for i := range e {
			e[i] = 0
		}
		e[k] = 1
	}
	for j := r; j < m; j++ {
		b, x := f.qt.Row(j), p.Row(f.perm[j])
		for i := r - 1; i >= 0; i-- {
			sum := b[i]
			for k := i + 1; k < r; k++ {
				sum -= f.qt.At(k, i) * x[k]
			}
			if d := f.qt.At(i, i); d != 0 {
				x[i] = sum / d
			} else {
				x[i] = 0
			}
		}
	}
	if cap(s) < r {
		s = make([]int, r)
	}
	s = s[:r]
	copy(s, f.perm)
	return p, s
}

// InterpolativeDecomp computes a rank-r row interpolative decomposition of
// q: it returns a projection matrix P (m×r) and row indices S (len r) such
// that q ≈ P * q[S, :]. This is Algorithm 2's ID(Q, r) step: a row ID of Q
// is a column ID of Qᵀ obtained from column-pivoted QR (Biagioni & Beylkin,
// "Randomized interpolative decomposition of separated representations").
//
// r is clamped to min(q.Rows(), q.Cols()).
func InterpolativeDecomp(q *Dense, r int) (p *Dense, s []int) {
	return InterpolativeDecompTol(q, r, 0)
}

// InterpolativeDecompTol is InterpolativeDecomp with numerical-rank
// truncation: when tol > 0 and the pivoted-QR diagonal decays below
// tol·|R(0,0)| before reaching r, the returned factorization truncates to
// the detected rank (at least 1). Duplicated or near-collinear batch rows
// make the Gram matrix numerically rank-deficient — truncating keeps the
// back-substitution for the interpolation coefficients away from the
// noise-level pivots that would otherwise amplify into the factors.
func InterpolativeDecompTol(q *Dense, r int, tol float64) (p *Dense, s []int) {
	return InterpolativeDecompInto(nil, nil, q, r, tol)
}

// InterpolativeDecompInto is InterpolativeDecompTol without allocating in
// steady state: p and s are persistent workspaces following the
// EnsureDense contract, exactly as in RandomizedIDInto. Only r pivoted
// Householder steps run — O(m·n·r) — since the rank decision and the
// factors read nothing beyond them.
func InterpolativeDecompInto(p *Dense, s []int, q *Dense, r int, tol float64) (pOut *Dense, sOut []int) {
	r = min(r, min(q.rows, q.cols))
	if r <= 0 {
		return EnsureDense(p, q.rows, 0), s[:0]
	}
	f := factorRowsOf(q, r)
	if tol > 0 {
		if nr := f.NumericalRank(tol); nr < r {
			r = max(nr, 1)
		}
	}
	p, s = f.idInto(p, s, r)
	f.put()
	return p, s
}
