// Package tensor provides the minimal 4D NCHW tensor machinery needed by
// the convolutional layers and by the CNN extension of SNGD (Sec. IV of the
// paper): contiguous storage, im2col/col2im, and reshape helpers.
package tensor

import "fmt"

// T4 is a dense 4D tensor in NCHW layout (batch, channels, height, width).
type T4 struct {
	N, C, H, W int
	Data       []float64
}

// New4 returns a zeroed NCHW tensor.
func New4(n, c, h, w int) *T4 {
	if n < 0 || c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("tensor: negative dims %d,%d,%d,%d", n, c, h, w))
	}
	return &T4{N: n, C: c, H: h, W: w, Data: make([]float64, n*c*h*w)}
}

// Wrap4 wraps existing data without copying.
func Wrap4(n, c, h, w int, data []float64) *T4 {
	if len(data) != n*c*h*w {
		panic(fmt.Sprintf("tensor: data length %d != %d", len(data), n*c*h*w))
	}
	return &T4{N: n, C: c, H: h, W: w, Data: data}
}

// At returns element (n, c, h, w).
func (t *T4) At(n, c, h, w int) float64 {
	return t.Data[((n*t.C+c)*t.H+h)*t.W+w]
}

// Set assigns element (n, c, h, w).
func (t *T4) Set(n, c, h, w int, v float64) {
	t.Data[((n*t.C+c)*t.H+h)*t.W+w] = v
}

// Sample returns the contiguous slice holding sample n (C*H*W values).
func (t *T4) Sample(n int) []float64 {
	sz := t.C * t.H * t.W
	return t.Data[n*sz : (n+1)*sz]
}

// Clone returns a deep copy.
func (t *T4) Clone() *T4 {
	out := New4(t.N, t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Zero clears the tensor in place.
func (t *T4) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Numel returns the total number of elements.
func (t *T4) Numel() int { return len(t.Data) }

// ConvShape describes a 2D convolution geometry.
type ConvShape struct {
	InC, InH, InW int
	OutC          int
	KH, KW        int
	Stride, Pad   int
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.InH+2*s.Pad-s.KH)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.InW+2*s.Pad-s.KW)/s.Stride + 1 }

// PatchLen returns the unfolded patch length InC*KH*KW (the im2col row
// width and the conv layer's effective input dimension d).
func (s ConvShape) PatchLen() int { return s.InC * s.KH * s.KW }

// Im2col unfolds sample x (C*H*W contiguous values) into a matrix of shape
// (OutH*OutW) × (InC*KH*KW), row-major into dst. Each row is one receptive
// field; this is the X̄ = im2col(X) operation of Sec. IV. dst must have
// length OutH*OutW*PatchLen.
func (s ConvShape) Im2col(x []float64, dst []float64) {
	if len(dst) != s.OutH()*s.OutW()*s.PatchLen() {
		panic("tensor: Im2col dst length mismatch")
	}
	s.Im2colStride(x, dst, s.PatchLen())
}

// Im2colStride is Im2col into rows ld ≥ PatchLen apart: row r occupies
// dst[r*ld : r*ld+PatchLen] and the ld-PatchLen values after it are left
// untouched, so a caller can unfold straight into a wider matrix (the conv
// layer's [X̄, 1]).
func (s ConvShape) Im2colStride(x []float64, dst []float64, ld int) {
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

// Col2im folds the gradient of an im2col matrix back into input-gradient
// form, accumulating overlapping patches. cols is (OutH*OutW) × PatchLen
// row-major; dst is the C*H*W input gradient, accumulated in place.
func (s ConvShape) Col2im(cols []float64, dst []float64) {
	oh, ow, pl := s.OutH(), s.OutW(), s.PatchLen()
	if len(dst) != s.InC*s.InH*s.InW {
		panic("tensor: Col2im dst length mismatch")
	}
	if len(cols) != oh*ow*pl {
		panic("tensor: Col2im cols length mismatch")
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			row := cols[(oy*ow+ox)*pl : (oy*ow+ox+1)*pl]
			idx := 0
			for c := 0; c < s.InC; c++ {
				chBase := c * s.InH * s.InW
				for ky := 0; ky < s.KH; ky++ {
					iy := oy*s.Stride - s.Pad + ky
					if iy < 0 || iy >= s.InH {
						idx += s.KW
						continue
					}
					rowBase := chBase + iy*s.InW
					for kx := 0; kx < s.KW; kx++ {
						ix := ox*s.Stride - s.Pad + kx
						if ix >= 0 && ix < s.InW {
							dst[rowBase+ix] += row[idx]
						}
						idx++
					}
				}
			}
		}
	}
}
