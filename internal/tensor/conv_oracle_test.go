package tensor

// The per-element im2col loop exactly as it stood before the position-range
// function replaced it (identifiers prefixed, nothing else changed). Kept as
// the bit-level reference: Im2colRange, over the full range or any split of
// it, must reproduce this loop by math.Float64bits.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func oracleIm2colStride(s ConvShape, x []float64, dst []float64, ld int) {
	oh, ow, pl := s.OutH(), s.OutW(), s.PatchLen()
	if len(x) != s.InC*s.InH*s.InW {
		panic("tensor: Im2col input length mismatch")
	}
	if ld < pl || len(dst) < (oh*ow-1)*ld+pl {
		panic("tensor: Im2col dst length mismatch")
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := dst[(oy*ow+ox)*ld : (oy*ow+ox)*ld+pl]
			idx := 0
			for c := 0; c < s.InC; c++ {
				chBase := c * s.InH * s.InW
				for ky := 0; ky < s.KH; ky++ {
					iy := oy*s.Stride - s.Pad + ky
					if iy < 0 || iy >= s.InH {
						for kx := 0; kx < s.KW; kx++ {
							row[idx] = 0
							idx++
						}
						continue
					}
					rowBase := chBase + iy*s.InW
					for kx := 0; kx < s.KW; kx++ {
						ix := ox*s.Stride - s.Pad + kx
						if ix < 0 || ix >= s.InW {
							row[idx] = 0
						} else {
							row[idx] = x[rowBase+ix]
						}
						idx++
					}
				}
			}
		}
	}
}

// oracleShapes are the conv geometries the layers use plus the awkward ones:
// stride 2 and 3, padding at least the kernel (positions that see nothing
// but padding), an input narrower than the kernel, a 1×1 projection.
func oracleShapes(rng *rand.Rand) []ConvShape {
	shapes := []ConvShape{
		{InC: 3, InH: 16, InW: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 8, InW: 8, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{InC: 4, InH: 9, InW: 7, KH: 1, KW: 1, Stride: 2, Pad: 0},
		{InC: 2, InH: 5, InW: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, // InW < KW
		{InC: 1, InH: 4, InW: 5, KH: 2, KW: 2, Stride: 3, Pad: 3}, // pad > kernel
		{InC: 2, InH: 3, InW: 3, KH: 3, KW: 2, Stride: 2, Pad: 4},
		{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 3},
	}
	for len(shapes) < 60 {
		s := ConvShape{
			InC: 1 + rng.Intn(4), InH: 1 + rng.Intn(9), InW: 1 + rng.Intn(9),
			KH: 1 + rng.Intn(4), KW: 1 + rng.Intn(4), Stride: 1 + rng.Intn(3), Pad: rng.Intn(6),
		}
		if s.InH+2*s.Pad >= s.KH && s.InW+2*s.Pad >= s.KW {
			shapes = append(shapes, s)
		}
	}
	return shapes
}

// oracleSplits returns the full range first, then random cuts of [0, n)
// into consecutive ranges, most of which end inside an output row.
func oracleSplits(rng *rand.Rand, n int) [][]int {
	splits := [][]int{{0, n}}
	for k := 0; k < 4; k++ {
		cuts := []int{0}
		for cuts[len(cuts)-1] < n {
			cuts = append(cuts, min(n, cuts[len(cuts)-1]+rng.Intn(n+1)))
		}
		splits = append(splits, cuts)
	}
	return splits
}

func sameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestIm2colRangeOracle unfolds every split of every shape into rows ld
// apart, over a destination pre-filled with a sentinel: the patches must
// equal the old loop's and the gaps must keep the sentinel.
func TestIm2colRangeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range oracleShapes(rng) {
		x := make([]float64, s.InC*s.InH*s.InW)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		n, pl := s.OutH()*s.OutW(), s.PatchLen()
		for _, ld := range []int{pl, pl + 1, pl + 3} {
			want := make([]float64, n*ld)
			for i := range want {
				want[i] = -7
			}
			oracleIm2colStride(s, x, want[:(n-1)*ld+pl], ld)
			for _, cuts := range oracleSplits(rng, n) {
				got := make([]float64, n*ld)
				for i := range got {
					got[i] = -7
				}
				for k := 0; k+1 < len(cuts); k++ {
					p0, p1 := cuts[k], cuts[k+1]
					// A range's last row stops at PatchLen: the gap after it need not exist.
					s.Im2colRange(x, got[p0*ld:max(p0*ld, (p1-1)*ld+pl)], ld, p0, p1)
				}
				sameBits(t, fmt.Sprintf("Im2colRange %+v ld=%d cuts=%v", s, ld, cuts), want, got)
			}
		}
	}
}

// TestRangePanics pins the argument checks of Im2colRange.
func TestRangePanics(t *testing.T) {
	s := ConvShape{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x, pl := make([]float64, 16), s.PatchLen()
	for name, fn := range map[string]func(){
		"im2col p1 beyond the map":   func() { s.Im2colRange(x, make([]float64, 17*pl), pl, 0, 17) },
		"im2col p0 > p1":             func() { s.Im2colRange(x, make([]float64, pl), pl, 3, 2) },
		"im2col negative p0":         func() { s.Im2colRange(x, make([]float64, 2*pl), pl, -1, 1) },
		"im2col ld below PatchLen":   func() { s.Im2colRange(x, make([]float64, 2*pl), pl-1, 0, 2) },
		"im2col dst one value short": func() { s.Im2colRange(x, make([]float64, 2*pl), pl+1, 0, 2) },
		"im2col input length":        func() { s.Im2colRange(x[:15], make([]float64, pl), pl, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
