// Package tensor provides the convolution geometry needed by the
// convolutional layers and by the CNN extension of SNGD (Sec. IV of the
// paper): ConvShape and its im2col/col2im over contiguous C·H·W samples.
package tensor

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
	s.Im2colRange(x, dst, s.PatchLen(), 0, s.OutH()*s.OutW())
}

// window is the part of one output position's receptive field that lies
// inside the input: kernel rows [ky0, ky1) and columns [kx0, kx1), both
// empty when either is, with (iy0, ix0) the input coordinates of kernel
// element (0, 0); clipped says some element fell in the padding. Clipping
// once per position keeps the copy loops free of bounds tests.
type window struct {
	iy0, ix0, ky0, ky1, kx0, kx1 int
	clipped                      bool
}

func (s ConvShape) window(oy, ox int) window {
	iy0, ix0 := oy*s.Stride-s.Pad, ox*s.Stride-s.Pad
	ky0, kx0 := max(-iy0, 0), max(-ix0, 0)
	ky1, kx1 := min(s.InH-iy0, s.KH), min(s.InW-ix0, s.KW)
	if ky1 <= ky0 || kx1 <= kx0 {
		return window{clipped: true}
	}
	return window{iy0, ix0, ky0, ky1, kx0, kx1, ky0 > 0 || ky1 < s.KH || kx0 > 0 || kx1 < s.KW}
}

// checkRange panics unless [p0, p1) is a range of output positions and a
// matrix of p1-p0 rows ld apart, PatchLen wide, fits in n values.
func (s ConvShape) checkRange(op string, n, ld, p0, p1 int) {
	if p0 < 0 || p0 > p1 || p1 > s.OutH()*s.OutW() {
		panic("tensor: " + op + " position range out of bounds")
	}
	if pl := s.PatchLen(); ld < pl || (p1 > p0 && n < (p1-p0-1)*ld+pl) {
		panic("tensor: " + op + " column matrix length mismatch")
	}
}

// Im2colRange unfolds output positions [p0, p1) of sample x, numbered
// row-major over (oy, ox), into rows ld ≥ PatchLen apart: position p fills
// dst[(p-p0)*ld : (p-p0)*ld+PatchLen] and the ld-PatchLen values after it
// are left untouched, so a caller can unfold a strip of the sample straight
// into a wider matrix (the conv layer's [X̄, 1]). Im2col is the full range.
func (s ConvShape) Im2colRange(x []float64, dst []float64, ld, p0, p1 int) {
	if len(x) != s.InC*s.InH*s.InW {
		panic("tensor: Im2col input length mismatch")
	}
	s.checkRange("Im2col", len(dst), ld, p0, p1)
	ow, pl, kk, plane := s.OutW(), s.PatchLen(), s.KH*s.KW, s.InH*s.InW
	oy, ox := p0/ow, p0%ow
	for p := p0; p < p1; p++ {
		row := dst[(p-p0)*ld:][:pl]
		w := s.window(oy, ox)
		if w.clipped {
			clear(row)
		}
		n := w.kx1 - w.kx0
		so, do := (w.iy0+w.ky0)*s.InW+w.ix0+w.kx0, w.ky0*s.KW+w.kx0
		for c := 0; c < s.InC; c++ {
			si, di := so, do
			for ky := w.ky0; ky < w.ky1; ky++ {
				src, d := x[si:si+n], row[di:di+n]
				for i, v := range src {
					d[i] = v
				}
				si, di = si+s.InW, di+s.KW
			}
			so, do = so+plane, do+kk
		}
		if ox++; ox == ow {
			oy, ox = oy+1, 0
		}
	}
}

// Col2im folds the gradient of an im2col matrix back into input-gradient
// form, accumulating overlapping patches. cols is (OutH*OutW) × PatchLen
// row-major; dst is the C*H*W input gradient, accumulated in place.
func (s ConvShape) Col2im(cols []float64, dst []float64) {
	if len(cols) != s.OutH()*s.OutW()*s.PatchLen() {
		panic("tensor: Col2im cols length mismatch")
	}
	s.Col2imRange(cols, dst, 0, s.OutH()*s.OutW())
}

// Col2imRange is Col2im for output positions [p0, p1) alone: cols holds
// their p1-p0 rows, PatchLen apart. Positions are folded in ascending order,
// so folding consecutive ranges one after another adds every element of dst
// its contributions in the order the full range does.
func (s ConvShape) Col2imRange(cols []float64, dst []float64, p0, p1 int) {
	if len(dst) != s.InC*s.InH*s.InW {
		panic("tensor: Col2im dst length mismatch")
	}
	ow, pl, kk, plane := s.OutW(), s.PatchLen(), s.KH*s.KW, s.InH*s.InW
	s.checkRange("Col2im", len(cols), pl, p0, p1)
	oy, ox := p0/ow, p0%ow
	for p := p0; p < p1; p++ {
		row := cols[(p-p0)*pl:][:pl]
		w := s.window(oy, ox)
		n := w.kx1 - w.kx0
		do, so := (w.iy0+w.ky0)*s.InW+w.ix0+w.kx0, w.ky0*s.KW+w.kx0
		for c := 0; c < s.InC; c++ {
			di, si := do, so
			for ky := w.ky0; ky < w.ky1; ky++ {
				d, src := dst[di:di+n], row[si:si+n]
				for i, v := range src {
					d[i] += v
				}
				di, si = di+s.InW, si+s.KW
			}
			do, so = do+plane, so+kk
		}
		if ox++; ox == ow {
			oy, ox = oy+1, 0
		}
	}
}
