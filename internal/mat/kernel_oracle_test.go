package mat

// The GEMM and axpy contracts written out element by element, as the bit
// level reference for every kernel family under them: the AVX-512 and AVX2
// assembly and the pure-Go kernels must each reproduce these loops of
// math.FMA by math.Float64bits (sameValue: any NaN equals any NaN). The packed path is entered directly so shapes below gemm's
// small-product threshold reach the micro-kernel's edge handling too.

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// oracleGemm is out = op(a)*op(b) as gemmPacked defines it: out starts at
// +0; for each kc-slice of k in order, an accumulator starts at +0, takes the
// slice's products for p ascending, fused, and is added to out.
func oracleGemm(a, b *Dense, transA, transB bool) *Dense {
	at := func(m *Dense, trans bool, i, j int) float64 {
		if trans {
			i, j = j, i
		}
		return m.data[i*m.cols+j]
	}
	m, k, n := a.rows, a.cols, b.cols
	if transA {
		m, k = k, m
	}
	if transB {
		n = b.rows
	}
	out := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for pc := 0; pc < k; pc += gemmKC {
				var acc float64
				for p := pc; p < min(pc+gemmKC, k); p++ {
					acc = math.FMA(at(a, transA, i, p), at(b, transB, p, j), acc)
				}
				out.data[i*n+j] += acc
			}
		}
	}
	return out
}

// withKernels runs fn with the assembly (asm) and its AVX-512 tiles (avx512)
// switched as given.
func withKernels(asm, avx512 bool, fn func()) {
	defer func(a, z bool) { useAsm, useAVX512 = a, z }(useAsm, useAVX512)
	useAsm, useAVX512 = asm, avx512
	fn()
}

type kernelImpl struct {
	name string
	with func(fn func())
}

// kernelImpls runs a function under each kernel family this build and CPU
// offer, each forced in turn: AVX-512, AVX2 and the pure-Go reference.
var kernelImpls = offeredKernels()

func offeredKernels() []kernelImpl {
	var impls []kernelImpl
	if useAVX512 {
		impls = append(impls, kernelImpl{"avx512", func(fn func()) { withKernels(true, true, fn) }})
	}
	if useAsm {
		impls = append(impls, kernelImpl{"avx2", func(fn func()) { withKernels(true, false, fn) }})
	}
	return append(impls, kernelImpl{"reference", func(fn func()) { withKernels(false, false, fn) }})
}

var (
	oracleKinds    = []string{"normal", "zeros", "finite", "special"}
	oracleFinite   = []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, 1e300, -1e300, 1e-300}
	oracleSpecials = append([]float64{math.Inf(1), math.Inf(-1), math.NaN()}, oracleFinite...)
)

// oracleOperand fills a rows×cols matrix by kind: "normal" draws; "zeros",
// all ±0; "finite", one entry in eight replaced by ±0, a denormal or
// 1e±300; "special", a handful of entries replaced by those or ±Inf/NaN
// (few enough that most outputs stay finite).
func oracleOperand(rng *RNG, kind string, rows, cols int) *Dense {
	m := RandN(rng, rows, cols, 1)
	switch kind {
	case "zeros":
		for i := range m.data {
			m.data[i] = oracleFinite[rng.Intn(2)]
		}
	case "finite":
		for i := range m.data {
			if rng.Intn(8) == 0 {
				m.data[i] = oracleFinite[rng.Intn(len(oracleFinite))]
			}
		}
	case "special":
		for n := 0; n < 1+len(m.data)/64 && len(m.data) > 0; n++ {
			m.data[rng.Intn(len(m.data))] = oracleSpecials[rng.Intn(len(oracleSpecials))]
		}
	}
	return m
}

// checkGemmOracle holds gemmPacked, under every kernel family, against
// the oracle on one (shape, transpose case, operand kind). out starts as garbage: the first k-slice must overwrite it.
func checkGemmOracle(t *testing.T, seed uint64, kind string, transA, transB bool, m, k, n int) {
	t.Helper()
	rng := NewRNG(seed)
	ar, ac, br, bc := m, k, k, n
	if transA {
		ar, ac = k, m
	}
	if transB {
		br, bc = n, k
	}
	a, b := oracleOperand(rng, kind, ar, ac), oracleOperand(rng, kind, br, bc)
	want := oracleGemm(a, b, transA, transB)
	name := fmt.Sprintf("%s tA=%v tB=%v %dx%dx%d", kind, transA, transB, m, k, n)
	got := NewDense(m, n)
	for _, impl := range kernelImpls {
		got.Fill(math.NaN())
		impl.with(func() { gemmPacked(got, a, Gathered{}, b, transA, transB, m, k, n, false, false) })
		sameOracle(t, name+" "+impl.name, want, got)
	}
	if kind == "zeros" {
		for i, v := range got.data {
			if math.Float64bits(v) != 0 {
				t.Fatalf("%s: element %d is %v, want +0", name, i, v)
			}
		}
	}
}

// TestGemmKernelOracle covers full and edge tiles in both directions (n mod
// 16 at 1, 7, 8, 9 and 15 among them, and the conv widths 8, 16 and 32), k
// below, at and beyond one and two kc slices, an n wider than one nc block,
// and an m tall enough for the work-stealing path.
func TestGemmKernelOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		shapes := [][3]int{
			{1, 1, 1}, {3, 5, 7}, {4, 8, 8}, {5, 9, 9}, {8, 3, 16}, {9, 17, 23},
			{4, 30, 15}, {8, 20, 17}, {5, 33, 24}, {12, 19, 25}, {4, 40, 31}, {9, 50, 32},
			{4, gemmKC, 8}, {7, gemmKC + 1, 13}, {6, 2*gemmKC + 6, 10},
			{13, 40, gemmNC + 12}, {8*gemmClaimPanels*gemmMR + 3, 30, 17},
		}
		for si, s := range shapes {
			for ci, kind := range oracleKinds {
				for tc := 0; tc < 4; tc++ {
					checkGemmOracle(t, uint64(100*si+10*ci+tc), kind, tc&1 != 0, tc&2 != 0, s[0], s[1], s[2])
				}
			}
		}
	})
}

// TestKernelFamilies holds whole products at the benchmark workloads' shapes
// to the oracle under every kernel family this build and CPU offer, so all
// of them give the same bits: 256×256×256 as a*b, aᵀ*b and a*bᵀ, and the
// gathered conv products 512×144×{8, 16, 32}. It logs the families it
// checked and skips, naming them, when one could not run here.
func TestKernelFamilies(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		const n = 256
		for tc := 0; tc < 3; tc++ {
			checkGemmOracle(t, uint64(tc), "normal", tc == 1, tc == 2, n, n, n)
		}
		for _, cols := range []int{8, 16, 32} {
			checkGatheredOracle(t, uint64(cols), "normal", 512, 144, cols)
		}
		var names []string
		for _, impl := range kernelImpls {
			names = append(names, impl.name)
		}
		t.Logf("kernel families offered and checked: %s", strings.Join(names, ", "))
		switch {
		case !useAsm:
			t.Skip("not run: avx512 and avx2 (this build or CPU has no assembly kernels)")
		case !useAVX512:
			t.Skip("not run: avx512 (the CPU lacks AVX512F or the OS does not save ZMM state)")
		}
	})
}

// TestMulStripOracle feeds aᵀb to MulStripInto as StripRows-row strips of a
// and b, acc on all but the first, and requires the one-shot MulTAInto bit
// for bit: for every k from 1 to past three kc slices, with and without the
// assembly, at a width on each side of the small-product
// threshold (the choice is made from k, so every strip takes the path the
// whole product takes — a 1-row tail strip too). On a subset of those k,
// the row-strip cases: strips of a*b and a*bᵀ equal the matching rows of the
// whole products.
func TestMulStripOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		const kmax = 3*gemmKC + 7
		rng := NewRNG(7)
		operands := func(m, k, n int) [3]*Dense {
			return [3]*Dense{oracleOperand(rng, "finite", k, m), oracleOperand(rng, "finite", k, n), oracleOperand(rng, "finite", n, m)}
		}
		small, stem, wide := operands(5, kmax, 3), operands(73, kmax, 8), operands(37, 2*gemmKC+40, gemmNC+9)
		for _, impl := range kernelImpls {
			impl.with(func() {
				for k := 1; k <= kmax; k++ {
					// The conv stem's 73×8 goes packed from k = 449: every k around
					// that switch and around each slice boundary, one in 64 between.
					r := k % gemmKC
					some := r < 4 || r > gemmKC-4 || (k > 444 && k < 454) || k%64 == 0
					checkMulStrip(t, impl.name, small, k, some) // the small kernels throughout
					if some {
						checkMulStrip(t, impl.name, stem, k, true)
					}
				}
				checkMulStrip(t, impl.name, wide, wide[0].rows, true) // two nc blocks
			})
		}
	})
}

// checkMulStrip runs aᵀb in k-strips over the first k rows of ops[0] (k×m)
// and ops[1] (k×n) and, if asked, the two row-strip products, with ops[2]
// (n×m) as their other factor.
func checkMulStrip(t *testing.T, impl string, ops [3]*Dense, k int, rowStrips bool) {
	t.Helper()
	m, n, w := ops[0].cols, ops[1].cols, ops[2]
	a, b := NewDenseData(k, m, ops[0].data[:k*m]), NewDenseData(k, n, ops[1].data[:k*n])
	name := fmt.Sprintf("%s %dx%dx%d", impl, m, k, n)
	gotTA, gotAB, gotTB := NewDense(m, n), NewDense(k, m), NewDense(k, n)
	gotTA.Fill(math.NaN()) // the first strip must overwrite
	var as, bs, ab, tb Dense
	for r0 := 0; r0 < k; r0 += StripRows {
		r1 := min(r0+StripRows, k)
		as.Wrap(r1-r0, m, a.data[r0*m:r1*m])
		bs.Wrap(r1-r0, n, b.data[r0*n:r1*n])
		MulStripInto(gotTA, &as, &bs, true, false, k, r0 > 0)
		if rowStrips {
			MulStripInto(ab.Wrap(r1-r0, m, gotAB.data[r0*m:r1*m]), &bs, w, false, false, k, false)
			MulStripInto(tb.Wrap(r1-r0, n, gotTB.data[r0*n:r1*n]), &as, w, false, true, k, false)
		}
	}
	sameOracle(t, name+" aᵀb in k-strips", MulTAInto(NewDense(m, n), a, b), gotTA)
	if rowStrips {
		sameOracle(t, name+" row strips of a*b", MulInto(NewDense(k, m), b, w), gotAB)
		sameOracle(t, name+" row strips of a*bᵀ", MulTBInto(NewDense(k, n), a, w), gotTB)
	}
}

// checkAxpyOracle holds axpy, under every kernel family, against
// math.FMA(s, src[i], dst[i]) written out.
func checkAxpyOracle(t *testing.T, dst, src []float64, s float64) {
	t.Helper()
	want := make([]float64, len(dst))
	for i := range dst {
		want[i] = math.FMA(s, src[i], dst[i])
	}
	for _, impl := range kernelImpls {
		got := append([]float64(nil), dst...)
		impl.with(func() { axpy(got, src, s) })
		for i := range want {
			if !sameValue(want[i], got[i]) {
				t.Fatalf("axpy %s n=%d s=%v: element %d is %v, want %v", impl.name, len(dst), s, i, got[i], want[i])
			}
		}
	}
}

func TestAxpyOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for ci, kind := range oracleKinds {
				rng := NewRNG(uint64(10*n + ci))
				// src is longer than dst: only len(dst) elements may be touched.
				dst, src := oracleOperand(rng, kind, 1, n+1).data[:n], oracleOperand(rng, kind, 1, n+1).data
				for _, s := range append([]float64{1.5, -0.3}, oracleSpecials...) {
					checkAxpyOracle(t, dst, src, s)
				}
			}
		}
	})
}

// FuzzGemmKernel drives the packed GEMM, assembly and reference, against
// the oracle over arbitrary small shapes, transpose cases and operand kinds.
func FuzzGemmKernel(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(8), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(9), uint8(33), uint8(17), uint8(0xf))
	f.Add(uint64(3), uint8(1), uint8(255), uint8(1), uint8(0x6))
	f.Fuzz(func(t *testing.T, seed uint64, mDim, kDim, nDim, mode uint8) {
		kind := oracleKinds[mode>>2&3]
		// k reaches past two kc slices for the largest kDim.
		checkGemmOracle(t, seed, kind, mode&1 != 0, mode&2 != 0, int(mDim%24)+1, int(kDim)*5+1, int(nDim%40)+1)
	})
}

// FuzzAxpy drives axpy, assembly and reference, against the oracle for
// arbitrary lengths and scale factors.
func FuzzAxpy(f *testing.F) {
	f.Add(uint64(1), uint8(0), 1.0, uint8(0))
	f.Add(uint64(2), uint8(70), math.Inf(-1), uint8(3))
	f.Add(uint64(3), uint8(13), 5e-324, uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, s float64, mode uint8) {
		kind := oracleKinds[mode&3]
		rng := NewRNG(seed)
		checkAxpyOracle(t, oracleOperand(rng, kind, 1, int(n)+1).data[:n], oracleOperand(rng, kind, 1, int(n)+1).data, s)
	})
}

// TestGramTIntoOracle holds GramTInto, which computes the packed product's
// lower-triangle tiles and mirrors them, to the full MulTAInto(dst, m, m)
// over shapes with edge rows and columns, one past an nc block, two kc
// slices, and one below the small-product threshold.
func TestGramTIntoOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		shapes := [][2]int{{64, 65}, {40, 81}, {17, 129}, {256, 257}, {5, gemmNC + 44}, {gemmKC + 1, 23}, {2*gemmKC - 24, 17}, {3, 10}, {9, 1}}
		for si, s := range shapes {
			for ci, kind := range oracleKinds {
				m := oracleOperand(NewRNG(uint64(10*si+ci)), kind, s[0], s[1])
				want := MulTAInto(NewDense(s[1], s[1]), m, m)
				got := NewDense(s[1], s[1])
				for _, impl := range kernelImpls {
					got.Fill(math.NaN())
					impl.with(func() { GramTInto(got, m) })
					sameOracle(t, fmt.Sprintf("GramTInto %s %dx%d %s", kind, s[0], s[1], impl.name), want, got)
				}
			}
		}
	})
}
