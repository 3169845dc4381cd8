package mat

// The gathered product held to the stored one: a Gathered operand written out
// as a Dense must give, through MulGatheredInto, the bits oracleGemm defines
// for the packed path and the bits MulInto gives on whichever path the whole
// product's size selects — in one shot, in row blocks, and in StripRows-wide
// column blocks accumulated in order.

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// oracleGathered draws an m×k gathered operand of the given kind and its
// written-out copy. Both tables repeat offsets (each draws from fewer values
// than it has entries); for every other draw the row table instead descends
// in repeated pairs. Data is exactly as long as the largest sum needs.
func oracleGathered(rng *RNG, kind string, m, k int) (Gathered, *Dense) {
	table := func(n, step int) []int {
		t := make([]int, n)
		for i := range t {
			t[i] = step * rng.Intn(max(n*3/4, 1))
		}
		return t
	}
	g := Gathered{Row: table(m, 1+rng.Intn(3)), Col: table(k, 1+rng.Intn(2))}
	if rng.Intn(2) == 1 {
		for i := range g.Row {
			g.Row[i] = (m - 1 - i) / 2
		}
	}
	size := 1
	for _, r := range g.Row {
		for _, c := range g.Col {
			size = max(size, r+c+1)
		}
	}
	g.Data = oracleOperand(rng, kind, 1, size).data
	a := NewDense(m, k)
	for i, r := range g.Row {
		for p, c := range g.Col {
			a.data[i*k+p] = g.Data[r+c]
		}
	}
	return g, a
}

// checkGatheredOracle runs one (shape, kind) under every kernel family. out starts as NaN wherever a product must overwrite.
func checkGatheredOracle(t *testing.T, seed uint64, kind string, m, k, n int) {
	t.Helper()
	rng := NewRNG(seed)
	g, a := oracleGathered(rng, kind, m, k)
	b := oracleOperand(rng, kind, k, n)
	want := oracleGemm(a, b, false, false)
	got := NewDense(m, n)
	for _, impl := range kernelImpls {
		name := fmt.Sprintf("%s %s %dx%dx%d", impl.name, kind, m, k, n)
		impl.with(func() {
			got.Fill(math.NaN())
			gemmPacked(got, nil, g, b, false, false, m, k, n, false, false)
			sameOracle(t, name+" packed", want, got)

			whole := MulInto(NewDense(m, n), a, b)
			got.Fill(math.NaN())
			sameOracle(t, name+" one shot", whole, MulGatheredInto(got, g, b, m, k, false))

			got.Fill(math.NaN())
			var bs Dense
			for p0 := 0; p0 < k; p0 += StripRows {
				p1 := min(p0+StripRows, k)
				gs := Gathered{Data: g.Data, Row: g.Row, Col: g.Col[p0:p1]}
				MulGatheredInto(got, gs, bs.Wrap(p1-p0, n, b.data[p0*n:p1*n]), m, k, p0 > 0)
			}
			sameOracle(t, name+" column blocks", whole, got)

			got.Fill(math.NaN())
			var ds Dense
			for i0 := 0; i0 < m; i0 += 5 {
				i1 := min(i0+5, m)
				gs := Gathered{Data: g.Data, Row: g.Row[i0:i1], Col: g.Col}
				MulGatheredInto(ds.Wrap(i1-i0, n, got.data[i0*n:i1*n]), gs, b, m, k, false)
			}
			sameOracle(t, name+" row blocks", whole, got)
		})
	}
}

// TestGatheredOracle covers full and edge tiles in m and n (n mod 16 at 1,
// 7, 8, 9 and 15 among them, and the conv widths 8, 16 and 32), k below, at and
// beyond one and two kc slices, products on both sides of the small-product
// threshold through the entry point (70×520×9 is packed there), one column,
// one row, and an m tall enough for the work-stealing path.
func TestGatheredOracle(t *testing.T) {
	inFusedFamily(t, func(t *testing.T) {
		shapes := [][3]int{
			{1, 1, 1}, {3, 5, 7}, {4, 8, 8}, {5, 9, 9}, {8, 3, 16}, {9, 17, 23}, {12, 40, 1}, {1, 33, 11},
			{4, 30, 15}, {8, 20, 17}, {5, 33, 24}, {12, 19, 25}, {4, 40, 31}, {9, 50, 32},
			{4, gemmKC - 1, 8}, {4, gemmKC, 8}, {7, gemmKC + 1, 13}, {8, 2 * gemmKC, 9}, {6, 2*gemmKC + 6, 10},
			{70, gemmKC + 8, 9}, {13, 40, gemmNC + 12}, {8*gemmClaimPanels*gemmMR + 3, 30, 17},
		}
		for si, s := range shapes {
			for ci, kind := range oracleKinds {
				checkGatheredOracle(t, uint64(10*si+ci), kind, s[0], s[1], s[2])
			}
		}
	})
}

// TestGatheredRangeCheck: the assembly checks no address, so a table that
// reaches one element past Data, or before it, must panic in Go first.
func TestGatheredRangeCheck(t *testing.T) {
	b, dst := NewDense(8, 8), NewDense(4, 8)
	table := func(last int) []int { return []int{0, 1, 2, last} }
	for name, g := range map[string]Gathered{
		"max(Row)+max(Col) == len(Data)": {Data: make([]float64, 20), Row: table(9), Col: append(table(3), table(11)...)},
		"negative row offset":            {Data: make([]float64, 20), Row: table(-1), Col: append(table(3), table(3)...)},
		"negative column offset":         {Data: make([]float64, 20), Row: table(3), Col: append(table(3), table(-2)...)},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "outside Data") {
					t.Errorf("%s: panic %q, want the range check's", name, msg)
				}
			}()
			MulGatheredInto(dst, g, b, parallelThreshold, 8, false) // the packed path, were it reached
		}()
	}
}

// FuzzGathered drives the gathered product, assembly and reference, against
// the oracle and the stored product over arbitrary small shapes and operand
// kinds.
func FuzzGathered(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(8), uint8(8), uint8(0))
	f.Add(uint64(2), uint8(9), uint8(103), uint8(17), uint8(3))
	f.Add(uint64(3), uint8(23), uint8(255), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, mDim, kDim, nDim, mode uint8) {
		// k reaches past two kc slices for the largest kDim.
		checkGatheredOracle(t, seed, oracleKinds[mode&3], int(mDim%24)+1, int(kDim)*5+1, int(nDim%40)+1)
	})
}
