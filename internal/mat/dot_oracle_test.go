package mat

// Every "out[i,j] = Dot(rowᵢ, rowⱼ)" nest runs on the dot tile where the
// assembly is available. Dot is the contract: the loops these nests were
// before the tile are kept here verbatim as the oracle, and GramInto, the
// small a*bᵀ product, MulVecInto and Cholesky must equal them by
// math.Float64bits (sameValue: any NaN equals any NaN) under both
// implementations, in both kernel families, on any core count.

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

func oracleGram(m *Dense) *Dense {
	n := m.rows
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		ri := m.Row(i)
		orow := out.Row(i)
		for j := 0; j <= i; j++ {
			orow[j] = Dot(ri, m.Row(j))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.data[i*n+j] = out.data[j*n+i]
		}
	}
	return out
}

func oracleMulTB(a, b *Dense) *Dense {
	m, k, n := a.rows, a.cols, b.rows
	out := NewDense(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = Dot(arow, b.data[j*k:(j+1)*k])
		}
	}
	return out
}

func oracleMulVec(a *Dense, x []float64) []float64 {
	dst := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		dst[i] = Dot(a.Row(i), x)
	}
	return dst
}

// oracleCholesky returns nil where Cholesky returns ErrNotSPD.
func oracleCholesky(a *Dense) *Dense {
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var d float64
		lrowJ := l.Row(j)
		d = a.At(j, j) - Dot(lrowJ[:j], lrowJ[:j])
		if d <= 0 || math.IsNaN(d) {
			return nil
		}
		ljj := math.Sqrt(d)
		lrowJ[j] = ljj
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			lrowI := l.Row(i)
			lrowI[j] = (a.At(i, j) - Dot(lrowI[:j], lrowJ[:j])) * inv
		}
	}
	return l
}

// checkGramOracle holds GramInto to its oracle on n rows of length k of one
// operand kind, in the selected kernel family, under both implementations.
func checkGramOracle(t *testing.T, seed uint64, kind string, n, k int) {
	t.Helper()
	a := oracleOperand(NewRNG(seed), kind, n, k)
	want, got := oracleGram(a), NewDense(n, n)
	for _, impl := range kernelImpls {
		got.Fill(math.NaN())
		impl.with(func() { GramInto(got, a) })
		sameOracle(t, fmt.Sprintf("%s n=%d k=%d GramInto %s", kind, n, k, impl.name), want, got)
	}
}

// checkDotOracle does the same for all four nests: a is n×k, the second
// operand of a*bᵀ nb×k, and Cholesky's matrix n×n — its dots run over row
// prefixes of the factor, every length below n at ld = n. A dominant
// diagonal keeps most kinds factorable, and the rest must fail alike.
func checkDotOracle(t *testing.T, seed uint64, kind string, n, nb, k int) {
	t.Helper()
	checkGramOracle(t, seed, kind, n, k)
	rng := NewRNG(seed + 1)
	a, b := oracleOperand(rng, kind, n, k), oracleOperand(rng, kind, nb, k)
	x := oracleOperand(rng, kind, 1, k).data
	spd := oracleOperand(rng, kind, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			spd.data[j*n+i] = spd.data[i*n+j]
		}
		if kind != "special" || i%7 != 3 {
			spd.data[i*n+i] = float64(2*n + 1)
		}
	}
	wantTB, wantVec, wantChol := oracleMulTB(a, b), oracleMulVec(a, x), oracleCholesky(spd)
	name := fmt.Sprintf("%s n=%d nb=%d k=%d", kind, n, nb, k)
	for _, impl := range kernelImpls {
		impl.with(func() {
			// gemmSmall is entered directly so every shape reaches it.
			if k > 0 {
				got := NewDense(n, nb)
				got.Fill(math.NaN())
				gemmSmall(got, a, b, false, true, n, k, nb, false)
				sameOracle(t, name+" a*bᵀ "+impl.name, wantTB, got)
			}

			vec := NewDense(1, n)
			vec.Fill(math.NaN())
			MulVecInto(vec.data, a, x)
			sameOracle(t, name+" MulVecInto "+impl.name, NewDenseData(1, n, wantVec), vec)

			l, err := Cholesky(spd)
			if (err != nil) != (wantChol == nil) {
				t.Fatalf("%s Cholesky %s: err = %v, oracle factored: %v", name, impl.name, err, wantChol != nil)
			}
			if err == nil {
				sameOracle(t, name+" Cholesky "+impl.name, wantChol, l)
			}
		})
	}
}

// withProcs runs fn at each GOMAXPROCS in turn.
func withProcs(t *testing.T, procs []int, fn func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		t.Run(fmt.Sprintf("procs=%d", p), fn)
	}
}

// TestDotTileOracle covers every n mod 2, n mod 4 and k mod 4 edge and
// k < 4, and GramInto — the one nest with workers — on every core count at
// sizes where they claim row pairs (short rows: the claims are the subject).
func TestDotTileOracle(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33, 255, 256, 257}
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 258}
	withBothKernelFamilies(t, func(t *testing.T) {
		for ci, kind := range oracleKinds {
			for i, n := range ns {
				for _, k := range ks {
					// The large n take one small and one large k each,
					// rotating through the k mod 4 residues.
					if n > 33 && k != 3+(i+ci)%4 && k != 255+(i+ci)%4 {
						continue
					}
					checkDotOracle(t, uint64(1000*n+10*k+ci), kind, n, 13-n%5, k)
				}
			}
		}
		withProcs(t, []int{1, 2, 4}, func(t *testing.T) {
			for ci, kind := range oracleKinds {
				for i, n := range ns[10:] {
					checkGramOracle(t, uint64(7000*n+ci), kind, n, 5+(i+ci)%4)
				}
			}
		})
	})
}

// FuzzDotTile drives the four nests against their oracles over arbitrary
// small shapes, operand kinds and both kernel families.
func FuzzDotTile(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), uint8(4), uint8(0))
	f.Add(uint64(2), uint8(9), uint8(7), uint8(33), uint8(3))
	f.Add(uint64(3), uint8(70), uint8(1), uint8(255), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, n, nb, k, mode uint8) {
		defer SetFMAKernels(FMAKernels())
		SetFMAKernels(mode&1 != 0)
		checkDotOracle(t, seed, oracleKinds[mode>>1&3], int(n%80)+1, int(nb%20)+1, int(k))
	})
}

// TestGramSteadyStateAllocs pins the sequential Gram and kernel matrix at
// zero allocations once the pool is warm: the tile writes straight into dst.
func TestGramSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := NewRNG(9)
	a, g := RandN(rng, 66, 37, 1), RandN(rng, 66, 18, 1)
	out := NewDense(66, 66)
	KernelMatrixInto(out, a, g) // warm the pool
	for name, fn := range map[string]func(){
		"GramInto":         func() { GramInto(out, a) },
		"KernelMatrixInto": func() { KernelMatrixInto(out, a, g) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs > 0 && !raceEnabled {
			t.Fatalf("%s: %v allocs/op in steady state; want 0", name, allocs)
		}
	}
}
