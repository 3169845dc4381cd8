package mat

import (
	"math"
	"slices"
)

// SymEig computes the full eigendecomposition of a symmetric matrix.
// It returns the eigenvalues in ascending order and a matrix whose columns
// are the corresponding orthonormal eigenvectors, so a = V diag(vals) Vᵀ.
//
// The implementation is the classic dense path: Householder reduction to
// tridiagonal form followed by the implicit-shift QL iteration.
func SymEig(a *Dense) ([]float64, *Dense) {
	vals := make([]float64, a.rows)
	return vals, SymEigInto(nil, vals, a)
}

// SymEigInto is SymEig writing the eigenvectors into vecs, with
// EnsureDense semantics (it returns the matrix written), and the
// eigenvalues into vals unless vals is nil. Its workspace comes from the
// pool, so a caller that keeps vecs decomposes without allocating.
func SymEigInto(vecs *Dense, vals []float64, a *Dense) *Dense {
	if a.rows != a.cols {
		panic("mat: SymEig needs a square matrix")
	}
	n := a.rows
	vecs = EnsureDense(vecs, n, n)
	if n == 0 {
		return vecs
	}
	v := getDenseRaw(n, n) // destroyed and replaced by eigenvectors
	v.CopyFrom(a)
	d, e := GetFloats(n), GetFloats(n)
	tred2(v, d, e)
	tqli(d, e, v)
	// Sort ascending, permuting eigenvector columns to match.
	idx := getInts(n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		if d[i] < d[j] {
			return -1
		}
		return 0
	})
	for newCol, oldCol := range idx {
		if vals != nil {
			vals[newCol] = d[oldCol]
		}
		for r := 0; r < n; r++ {
			vecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	putInts(idx)
	PutFloats(d)
	PutFloats(e)
	PutDense(v)
	return vecs
}

// tred2 reduces the symmetric matrix stored in v to tridiagonal form,
// accumulating the orthogonal transform in v. On return d holds the
// diagonal and e the subdiagonal (e[0] unused).
func tred2(v *Dense, d, e []float64) {
	n := v.rows
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(v.At(i, k))
			}
			if scale == 0 {
				e[i] = v.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					v.Set(i, k, v.At(i, k)/scale)
					h += float64(v.At(i, k) * v.At(i, k))
				}
				f := v.At(i, l)
				g := math.Sqrt(h)
				if f > 0 {
					g = -g
				}
				e[i] = scale * g
				h -= float64(f * g)
				v.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					v.Set(j, i, v.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += float64(v.At(j, k) * v.At(i, k))
					}
					for k := j + 1; k <= l; k++ {
						g += float64(v.At(k, j) * v.At(i, k))
					}
					e[j] = g / h
					f += float64(e[j] * v.At(i, j))
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = v.At(i, j)
					g = e[j] - float64(hh*f)
					e[j] = g
					for k := 0; k <= j; k++ {
						v.Set(j, k, v.At(j, k)-(float64(f*e[k])+float64(g*v.At(i, k))))
					}
				}
			}
		} else {
			e[i] = v.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += float64(v.At(i, k) * v.At(k, j))
				}
				for k := 0; k <= l; k++ {
					v.Set(k, j, v.At(k, j)-float64(g*v.At(k, i)))
				}
			}
		}
		d[i] = v.At(i, i)
		v.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			v.Set(j, i, 0)
			v.Set(i, j, 0)
		}
	}
}

// tqli runs implicit-shift QL iterations on the tridiagonal matrix (d, e),
// accumulating rotations into the columns of z.
func tqli(d, e []float64, z *Dense) {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-300 || math.Abs(e[m])+dd == dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 50 {
				// Give up refining this eigenvalue; the remaining error is
				// at the level of the unconverged off-diagonal.
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+withSign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := float64(c * e[i])
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = float64((d[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				d[i+1] = g + p
				g = float64(c*r) - b
				for k := 0; k < n; k++ {
					f = z.At(k, i+1)
					z.Set(k, i+1, float64(s*z.At(k, i))+float64(c*f))
					z.Set(k, i, float64(c*z.At(k, i))-float64(s*f))
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
}

func withSign(a, b float64) float64 {
	if b >= 0 {
		return math.Abs(a)
	}
	return -math.Abs(a)
}
