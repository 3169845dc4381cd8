package mat

// Hadamard returns the element-wise product a ∘ b.
func Hadamard(a, b *Dense) *Dense {
	out := NewDense(a.rows, a.cols)
	HadamardInto(out, a, b)
	return out
}

// HadamardInto sets dst = a ∘ b without allocating. dst may alias a or b
// (the operation is element-wise).
func HadamardInto(dst, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols || dst.rows != a.rows || dst.cols != a.cols {
		panic("mat: HadamardInto dimension mismatch")
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
}

// SubInto sets dst = a − b without allocating. dst may alias a or b.
func SubInto(dst, a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols || dst.rows != a.rows || dst.cols != a.cols {
		panic("mat: SubInto dimension mismatch")
	}
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
}

// Gram returns m*mᵀ (the m.rows × m.rows Gram matrix of the rows of m),
// computing only the lower triangle and mirroring it (SYRK): half the
// flops of a general product.
func Gram(m *Dense) *Dense {
	out := NewDense(m.rows, m.rows)
	GramInto(out, m)
	return out
}

// GramInto sets dst = m*mᵀ without allocating. dst must be
// m.rows × m.rows and must not alias m.
func GramInto(dst, m *Dense) {
	n := m.rows
	if dst.rows != n || dst.cols != n {
		panic("mat: GramInto destination dimension mismatch")
	}
	checkNoAlias("GramInto", dst, m)
	// Row pairs are claimed 16 at a time, heaviest (the last rows) first.
	// Every element is one Dot whoever computes it, so the result does not
	// depend on the claims.
	Parallel((n+1)/2, 16, [2]*Dense{dst, m}, gramPairs)
	mirrorLower(dst)
}

// mirrorLower copies the lower triangle of the square dst onto its upper.
func mirrorLower(dst *Dense) {
	n := dst.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[i*n+j] = dst.data[j*n+i]
		}
	}
}

// GramT returns mᵀ*m (the m.cols × m.cols Gram matrix of the columns of m).
func GramT(m *Dense) *Dense { return MulTA(m, m) }

// GramTInto sets dst = mᵀ*m without allocating, bit for bit as
// MulTAInto(dst, m, m). A product that gemm packs computes only the tiles
// that reach the lower triangle and mirrors them: every element is its own
// k-ordered sum and a·b ≡ b·a. The small path stays whole, as its zero
// skips test one factor. dst must not alias m.
func GramTInto(dst, m *Dense) {
	n := m.cols
	if dst.rows != n || dst.cols != n {
		panic("mat: GramTInto destination dimension mismatch")
	}
	checkNoAlias("GramTInto", dst, m)
	if n*n*m.rows < parallelThreshold || n == 1 { // gemm's small-product test
		gemm(dst, m, m, true, false, m.rows, false)
		return
	}
	gemmPacked(dst, m, Gathered{}, m, true, false, n, m.rows, n, false, true)
	mirrorLower(dst)
}

// gramPairs fills row pairs [lo, hi), counted from the last, of the lower
// triangle of dst = m*mᵀ; dm is {dst, m}. The width is rounded up to whole
// dot tiles where the rows exist: what that adds lies above the diagonal,
// in the pair's rows, and the mirror pass overwrites it.
func gramPairs(dm [2]*Dense, lo, hi int) {
	dst, m := dm[0], dm[1]
	n, k := m.rows, m.cols
	for q := lo; q < hi; q++ {
		i := 2 * ((n+1)/2 - 1 - q)
		rows := min(2, n-i)
		dotBlock(dst.data[i*n:], n, m.data[i*k:], k, rows, m.data, k, min(n, (i+rows+3)&^3), k)
	}
}

// KernelMatrix returns the SNGD kernel K = (A Aᵀ) ∘ (G Gᵀ) of Eq. (7).
// A and G must both be m×d (per-sample inputs and output gradients); the
// result is m×m, symmetric positive semi-definite.
func KernelMatrix(a, g *Dense) *Dense {
	out := NewDense(a.rows, a.rows)
	KernelMatrixInto(out, a, g)
	return out
}

// KernelMatrixInto sets dst = (A Aᵀ) ∘ (G Gᵀ) without allocating beyond
// two pooled m×m scratch matrices. dst must be m×m and must not alias a
// or g.
func KernelMatrixInto(dst, a, g *Dense) {
	if a.rows != g.rows {
		panic("mat: KernelMatrix row mismatch")
	}
	m := a.rows
	if dst.rows != m || dst.cols != m {
		panic("mat: KernelMatrixInto destination dimension mismatch")
	}
	checkNoAlias("KernelMatrixInto", dst, a, g)
	kg := getDenseRaw(m, m)
	GramInto(dst, a)
	GramInto(kg, g)
	HadamardInto(dst, dst, kg)
	PutDense(kg)
}

// KhatriRao returns the row-wise Khatri-Rao product U = A ⊙ G of Eq. (5):
// row i of the result is the Kronecker product of row i of a with row i of
// g, so the output is m × (a.cols*g.cols). This is the per-sample Jacobian
// structure U = A ⊙ G.
func KhatriRao(a, g *Dense) *Dense {
	if a.rows != g.rows {
		panic("mat: KhatriRao row mismatch")
	}
	m, da, dg := a.rows, a.cols, g.cols
	out := NewDense(m, da*dg)
	for i := 0; i < m; i++ {
		ar, gr := a.Row(i), g.Row(i)
		orow := out.Row(i)
		for p, av := range ar {
			if av == 0 {
				continue
			}
			base := p * dg
			for q, gv := range gr {
				orow[base+q] = av * gv
			}
		}
	}
	return out
}

// KhatriRaoApply computes U*v for U = A ⊙ G without materializing U.
// v has length a.cols*g.cols; the result has length a.rows. Row i of U is
// vec(aᵢ gᵢᵀ)ᵀ, so (U v)ᵢ = aᵢᵀ V gᵢ where V is v reshaped a.cols×g.cols.
func KhatriRaoApply(a, g *Dense, v []float64) []float64 {
	out := make([]float64, a.rows)
	KhatriRaoApplyInto(out, a, g, v)
	return out
}

// KhatriRaoApplyInto computes dst = U*v for U = A ⊙ G without allocating
// beyond one pooled g.cols scratch vector. dst must have length a.rows and
// must not alias v.
func KhatriRaoApplyInto(dst []float64, a, g *Dense, v []float64) {
	if a.rows != g.rows || len(v) != a.cols*g.cols {
		panic("mat: KhatriRaoApply dimension mismatch")
	}
	if len(dst) != a.rows {
		panic("mat: KhatriRaoApplyInto destination length mismatch")
	}
	dg := g.cols
	tmp := getFloatsRaw(dg)
	for i := 0; i < a.rows; i++ {
		ar, gr := a.Row(i), g.Row(i)
		for q := range tmp {
			tmp[q] = 0
		}
		for p, av := range ar {
			if av == 0 {
				continue
			}
			axpy(tmp, v[p*dg:(p+1)*dg], av)
		}
		dst[i] = Dot(tmp, gr)
	}
	PutFloats(tmp)
}

// KhatriRaoApplyT computes Uᵀ*y for U = A ⊙ G without materializing U.
// y has length a.rows; the result has length a.cols*g.cols. Uᵀ y =
// vec(Σᵢ yᵢ aᵢ gᵢᵀ) = vec(Aᵀ diag(y) G).
func KhatriRaoApplyT(a, g *Dense, y []float64) []float64 {
	out := make([]float64, a.cols*g.cols)
	KhatriRaoApplyTInto(out, a, g, y)
	return out
}

// KhatriRaoApplyTInto computes dst = Uᵀ*y without allocating. dst must
// have length a.cols*g.cols, is fully overwritten, and must not alias y.
func KhatriRaoApplyTInto(dst []float64, a, g *Dense, y []float64) {
	if a.rows != g.rows || len(y) != a.rows {
		panic("mat: KhatriRaoApplyT dimension mismatch")
	}
	dg := g.cols
	if len(dst) != a.cols*dg {
		panic("mat: KhatriRaoApplyTInto destination length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		ar, gr := a.Row(i), g.Row(i)
		for p, av := range ar {
			c := yi * av
			if c == 0 {
				continue
			}
			axpy(dst[p*dg:(p+1)*dg], gr, c)
		}
	}
}

// RowNormsInto fills dst with the Euclidean norm of each row of m without
// allocating. dst must have length m.rows.
func RowNormsInto(dst []float64, m *Dense) {
	if len(dst) != m.rows {
		panic("mat: RowNormsInto destination length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Norm2(m.Row(i))
	}
}

// VStackInto stacks matrices vertically into dst (all inputs must share
// dst's column count and their row counts must sum to dst's). dst must not
// alias any input.
func VStackInto(dst *Dense, ms ...*Dense) {
	rows := 0
	for _, m := range ms {
		if m.cols != dst.cols {
			panic("mat: VStackInto column mismatch")
		}
		rows += m.rows
	}
	if rows != dst.rows {
		panic("mat: VStackInto row mismatch")
	}
	checkNoAlias("VStackInto", dst, ms...)
	off := 0
	for _, m := range ms {
		copy(dst.data[off:], m.data)
		off += len(m.data)
	}
}
