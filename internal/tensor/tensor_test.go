package tensor

import (
	"math"
	"slices"
	"testing"
)

func TestConvShapeDims(t *testing.T) {
	s := ConvShape{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if s.OutH() != 32 || s.OutW() != 32 {
		t.Fatalf("same-pad conv: out %dx%d; want 32x32", s.OutH(), s.OutW())
	}
	s2 := ConvShape{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, Stride: 2, Pad: 1}
	if s2.OutH() != 16 || s2.OutW() != 16 {
		t.Fatalf("strided conv: out %dx%d; want 16x16", s2.OutH(), s2.OutW())
	}
	if s.PatchLen() != 27 {
		t.Fatalf("PatchLen = %d; want 27", s.PatchLen())
	}
}

func TestIm2col1x1Kernel(t *testing.T) {
	// A 1×1 kernel with stride 1 and no padding is a pure reshape.
	s := ConvShape{InC: 2, InH: 2, InW: 2, OutC: 1, KH: 1, KW: 1, Stride: 1, Pad: 0}
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8} // 2 channels of 2x2
	dst := make([]float64, 4*2)
	s.Im2col(x, dst)
	// Row p (p = spatial position) = [ch0[p], ch1[p]].
	want := []float64{1, 5, 2, 6, 3, 7, 4, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Im2col = %v; want %v", dst, want)
		}
	}
}

func TestIm2colKnown3x3(t *testing.T) {
	// 1 channel 3x3 input, 2x2 kernel, stride 1, no pad → 4 patches.
	s := ConvShape{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, Stride: 1, Pad: 0}
	x := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	dst := make([]float64, 4*4)
	s.Im2col(x, dst)
	want := []float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Im2col row-major = %v; want %v", dst, want)
		}
	}
}

func TestIm2colPadding(t *testing.T) {
	// 1x1 input with 3x3 kernel and pad 1: single patch, center = value.
	s := ConvShape{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := []float64{5}
	dst := make([]float64, 9)
	s.Im2col(x, dst)
	for i, v := range dst {
		want := 0.0
		if i == 4 {
			want = 5
		}
		if v != want {
			t.Fatalf("padded Im2col = %v", dst)
		}
	}
}

// TestIm2colStride checks the strided unfold (Im2colRange with ld > PatchLen)
// against Im2col: the same rows ld apart, and the gap after each row left
// as the caller had it.
func TestIm2colStride(t *testing.T) {
	s := ConvShape{InC: 2, InH: 4, InW: 3, OutC: 1, KH: 3, KW: 2, Stride: 1, Pad: 1}
	x := make([]float64, s.InC*s.InH*s.InW)
	for i := range x {
		x[i] = float64(i + 1)
	}
	rows, pl := s.OutH()*s.OutW(), s.PatchLen()
	want := make([]float64, rows*pl)
	s.Im2col(x, want)
	ld := pl + 2
	got := make([]float64, rows*ld)
	for i := range got {
		got[i] = -7
	}
	s.Im2colRange(x, got[:(rows-1)*ld+pl], ld, 0, rows)
	for r := 0; r < rows; r++ {
		for j := 0; j < ld; j++ {
			w := -7.0
			if j < pl {
				w = want[r*pl+j]
			}
			if got[r*ld+j] != w {
				t.Fatalf("row %d col %d = %v; want %v", r, j, got[r*ld+j], w)
			}
		}
	}
}

// Tiny local PRNG so the test file doesn't import internal/mat.
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed} }

func (r *testRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *testRNG) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *testRNG) norm() float64 {
	u1, u2 := r.float(), r.float()
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func TestIm2colLengthPanics(t *testing.T) {
	s := ConvShape{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 1, Pad: 0}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad input length")
		}
	}()
	s.Im2col(make([]float64, 3), make([]float64, s.OutH()*s.OutW()*s.PatchLen()))
}

// TestStridedIm2colRoundTripEnergy: stride-2 2×2 patches do not overlap and
// cover the input, so the unfold holds every input value exactly once.
func TestStridedIm2colRoundTripEnergy(t *testing.T) {
	s := ConvShape{InC: 2, InH: 4, InW: 4, KH: 2, KW: 2, Stride: 2, Pad: 0}
	rng := newTestRNG(9)
	x := make([]float64, 32)
	for i := range x {
		x[i] = rng.norm()
	}
	cols := make([]float64, s.OutH()*s.OutW()*s.PatchLen())
	s.Im2col(x, cols)
	xs := slices.Clone(x)
	slices.Sort(xs)
	slices.Sort(cols)
	if !slices.Equal(xs, cols) {
		t.Fatalf("unfold %v does not hold the input's values %v", cols, xs)
	}
}
