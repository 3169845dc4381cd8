package mat

// Constructors and reductions only the tests use.

import "math"

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("mat: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// BlockDiag builds a block-diagonal matrix from square or rectangular blocks.
func BlockDiag(blocks ...*Dense) *Dense {
	var rows, cols int
	for _, b := range blocks {
		rows += b.rows
		cols += b.cols
	}
	return BlockDiagInto(NewDense(rows, cols), blocks...)
}

// Inv inverts a general square matrix via LU.
func Inv(a *Dense) (*Dense, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(Identity(a.rows)), nil
}

// MaxAbs returns max_ij |m_ij|.
func (m *Dense) MaxAbs() float64 {
	var d float64
	for _, v := range m.data {
		if a := math.Abs(v); a > d {
			d = a
		}
	}
	return d
}

// RandLowRank returns an m×n matrix of approximate rank r with noise:
// B*Cᵀ + eps*N where B is m×r, C is n×r.
func RandLowRank(rng *RNG, m, n, r int, eps float64) *Dense {
	b := RandN(rng, m, r, 1)
	c := RandN(rng, n, r, 1)
	out := MulTB(b, c)
	if eps > 0 {
		out.AddScaled(RandN(rng, m, n, 1), eps)
	}
	return out
}

// RowNorms returns the Euclidean norm of each row of m.
func RowNorms(m *Dense) []float64 {
	out := make([]float64, m.rows)
	RowNormsInto(out, m)
	return out
}
