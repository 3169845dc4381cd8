// Package mat implements the dense linear algebra kernels used throughout
// the HyLo reproduction: parallel blocked matrix multiplication, Gram and
// Hadamard products, Cholesky and LU factorizations, symmetric
// eigendecomposition, and the column-pivoted QR that backs the Khatri-Rao
// interpolative decomposition (KID).
//
// Matrices are dense, row-major, float64. The package is deterministic (no
// global RNG state is consulted) and depends only on the stdlib plus the
// in-repo telemetry counters. Hot-path kernels come in allocating and
// *Into form; the latter write into caller-owned (usually pooled)
// destinations — see pool.go and DESIGN.md "Performance: memory
// discipline" for the ownership rules.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a dense row-major matrix. The zero value is an empty matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	return new(Dense).Wrap(rows, cols, data)
}

// Wrap is NewDenseData into an existing header: it re-points m at data and
// returns m, so a view that moves — one strip of a larger matrix after
// another — costs no allocation per move. m must not be a pooled matrix.
func (m *Dense) Wrap(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	m.rows, m.cols, m.data = rows, cols, data
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// Shaped reports whether m is a rows×cols matrix; nil is none.
func Shaped(m *Dense, rows, cols int) bool { return m != nil && m.rows == rows && m.cols == cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add adds v to the element at (i, j).
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Data returns the underlying row-major backing slice (not a copy).
func (m *Dense) Data() []float64 { return m.data }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	n := NewDense(m.rows, m.cols)
	copy(n.data, m.data)
	return n
}

// CopyFrom copies the contents of src into m. Dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic("mat: CopyFrom dimension mismatch")
	}
	copy(m.data, src.data)
}

// Zero sets every element of m to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	return m.TInto(NewDense(m.cols, m.rows))
}

// TInto writes the transpose of m into t (cols×rows, fully overwritten)
// and returns t. t must not alias m.
func (m *Dense) TInto(t *Dense) *Dense {
	if t.rows != m.cols || t.cols != m.rows {
		panic("mat: TInto destination dimension mismatch")
	}
	if len(m.data) != 0 && len(t.data) != 0 && &m.data[0] == &t.data[0] {
		panic("mat: TInto destination aliases the source")
	}
	// Eight source rows at a time, so each column writes one full 64-byte
	// line of t rather than one element of a line per row.
	c, i0 := m.cols, 0
	for ; i0+8 <= m.rows; i0 += 8 {
		src := m.data[i0*c : (i0+8)*c]
		for j := 0; j < c; j++ {
			d := t.data[j*t.cols+i0 : j*t.cols+i0+8]
			d[0], d[1], d[2], d[3] = src[j], src[c+j], src[2*c+j], src[3*c+j]
			d[4], d[5], d[6], d[7] = src[4*c+j], src[5*c+j], src[6*c+j], src[7*c+j]
		}
	}
	for ; i0 < m.rows; i0++ {
		for j, v := range m.data[i0*c : (i0+1)*c] {
			t.data[j*t.cols+i0] = v
		}
	}
	return t
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddScaled sets m = m + s*other in place and returns m.
func (m *Dense) AddScaled(other *Dense, s float64) *Dense {
	if m.rows != other.rows || m.cols != other.cols {
		panic("mat: AddScaled dimension mismatch")
	}
	for i, v := range other.data {
		m.data[i] += float64(s * v)
	}
	return m
}

// AddMat sets m = m + other in place and returns m.
func (m *Dense) AddMat(other *Dense) *Dense { return m.AddScaled(other, 1) }

// Sub returns a new matrix a - b.
func Sub(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: Sub dimension mismatch")
	}
	out := NewDense(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// AddDiag adds alpha to every diagonal element in place and returns m.
func (m *Dense) AddDiag(alpha float64) *Dense {
	n := min(m.rows, m.cols)
	for i := 0; i < n; i++ {
		m.data[i*m.cols+i] += alpha
	}
	return m
}

// Trace returns the sum of diagonal elements.
func (m *Dense) Trace() float64 {
	var t float64
	n := min(m.rows, m.cols)
	for i := 0; i < n; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}

// SelectRows returns a new matrix containing the given rows of m, in order.
func (m *Dense) SelectRows(idx []int) *Dense {
	return m.SelectRowsInto(NewDense(len(idx), m.cols), idx)
}

// SelectRowsInto writes rows idx of m into dst (len(idx)×cols, fully
// overwritten) and returns dst. dst must not alias m.
func (m *Dense) SelectRowsInto(dst *Dense, idx []int) *Dense {
	if dst.rows != len(idx) || dst.cols != m.cols {
		panic("mat: SelectRowsInto destination dimension mismatch")
	}
	for k, i := range idx {
		copy(dst.Row(k), m.Row(i))
	}
	return dst
}

// SliceRows returns a view-free copy of rows [i0, i1).
func (m *Dense) SliceRows(i0, i1 int) *Dense {
	if i0 < 0 || i1 > m.rows || i0 > i1 {
		panic("mat: SliceRows out of range")
	}
	out := NewDense(i1-i0, m.cols)
	copy(out.data, m.data[i0*m.cols:i1*m.cols])
	return out
}

// VStack stacks matrices vertically (all must share the column count).
func VStack(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	cols := ms[0].cols
	rows := 0
	for _, m := range ms {
		if m.cols != cols {
			panic("mat: VStack column mismatch")
		}
		rows += m.rows
	}
	out := NewDense(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:], m.data)
		off += len(m.data)
	}
	return out
}

// BlockDiagInto assembles the block-diagonal matrix into dst, which must
// be pre-zeroed with dimensions matching the summed block sizes.
func BlockDiagInto(dst *Dense, blocks ...*Dense) *Dense {
	var rows, cols int
	for _, b := range blocks {
		rows += b.rows
		cols += b.cols
	}
	if dst.rows != rows || dst.cols != cols {
		panic("mat: BlockDiagInto destination dimension mismatch")
	}
	r, c := 0, 0
	for _, b := range blocks {
		for i := 0; i < b.rows; i++ {
			copy(dst.data[(r+i)*cols+c:(r+i)*cols+c+b.cols], b.Row(i))
		}
		r += b.rows
		c += b.cols
	}
	return dst
}

// Equal reports whether a and b have identical dimensions and all elements
// within tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i := range a.data {
		if v := math.Abs(a.data[i] - b.data[i]); v > d {
			d = v
		}
	}
	return d
}

// String renders the matrix for debugging; large matrices are truncated.
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dense(%dx%d)[\n", m.rows, m.cols)
	maxR, maxC := min(m.rows, 8), min(m.cols, 8)
	for i := 0; i < maxR; i++ {
		b.WriteString("  ")
		for j := 0; j < maxC; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
		if maxC < m.cols {
			b.WriteString("...")
		}
		b.WriteByte('\n')
	}
	if maxR < m.rows {
		b.WriteString("  ...\n")
	}
	b.WriteString("]")
	return b.String()
}
