package nn

import (
	"math"

	"repro/internal/mat"
)

// MaxPool2d is a k×k max pooling layer with stride = k (non-overlapping).
type MaxPool2d struct {
	K int

	in, out Shape
	argmax  [][]int // per forward: for each sample, index into input per output element
}

// NewMaxPool2d returns a k×k/stride-k max pooling layer.
func NewMaxPool2d(k int) *MaxPool2d { return &MaxPool2d{K: k} }

// Name implements Layer.
func (p *MaxPool2d) Name() string { return "maxpool" }

// Build implements Layer.
func (p *MaxPool2d) Build(in Shape, _ *mat.RNG) Shape {
	p.in = in
	p.out = Shape{C: in.C, H: in.H / p.K, W: in.W / p.K}
	if p.out.H == 0 || p.out.W == 0 {
		panic("nn: maxpool output empty")
	}
	return p.out
}

// Forward implements Layer.
func (p *MaxPool2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	y := mat.NewDense(m, p.out.Numel())
	p.argmax = make([][]int, m)
	oh, ow := p.out.H, p.out.W
	for i := 0; i < m; i++ {
		xr, yr := x.Row(i), y.Row(i)
		am := make([]int, p.out.Numel())
		for c := 0; c < p.in.C; c++ {
			chIn := c * p.in.H * p.in.W
			chOut := c * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := math.Inf(-1)
					bestIdx := -1
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.K + ky
						if iy >= p.in.H {
							continue
						}
						for kx := 0; kx < p.K; kx++ {
							ix := ox*p.K + kx
							if ix >= p.in.W {
								continue
							}
							idx := chIn + iy*p.in.W + ix
							if xr[idx] > best {
								best = xr[idx]
								bestIdx = idx
							}
						}
					}
					o := chOut + oy*ow + ox
					yr[o] = best
					am[o] = bestIdx
				}
			}
		}
		p.argmax[i] = am
	}
	return y
}

// Backward implements Layer.
func (p *MaxPool2d) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	out := mat.NewDense(m, p.in.Numel())
	for i := 0; i < m; i++ {
		gr, or := grad.Row(i), out.Row(i)
		for o, idx := range p.argmax[i] {
			or[idx] += gr[o]
		}
	}
	return out
}

// Params implements Layer.
func (p *MaxPool2d) Params() []*Param { return nil }

// AvgPool2d is a k×k average pooling layer with stride = k.
type AvgPool2d struct {
	K int

	in, out Shape
}

// NewAvgPool2d returns a k×k/stride-k average pooling layer.
func NewAvgPool2d(k int) *AvgPool2d { return &AvgPool2d{K: k} }

// Name implements Layer.
func (p *AvgPool2d) Name() string { return "avgpool" }

// Build implements Layer.
func (p *AvgPool2d) Build(in Shape, _ *mat.RNG) Shape {
	p.in = in
	p.out = Shape{C: in.C, H: in.H / p.K, W: in.W / p.K}
	if p.out.H == 0 || p.out.W == 0 {
		panic("nn: avgpool output empty")
	}
	return p.out
}

// Forward implements Layer.
func (p *AvgPool2d) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	y := mat.NewDense(m, p.out.Numel())
	inv := 1 / float64(p.K*p.K)
	oh, ow := p.out.H, p.out.W
	for i := 0; i < m; i++ {
		xr, yr := x.Row(i), y.Row(i)
		for c := 0; c < p.in.C; c++ {
			chIn := c * p.in.H * p.in.W
			chOut := c * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var s float64
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							s += xr[chIn+(oy*p.K+ky)*p.in.W+ox*p.K+kx]
						}
					}
					yr[chOut+oy*ow+ox] = s * inv
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (p *AvgPool2d) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	out := mat.NewDense(m, p.in.Numel())
	inv := 1 / float64(p.K*p.K)
	oh, ow := p.out.H, p.out.W
	for i := 0; i < m; i++ {
		gr, or := grad.Row(i), out.Row(i)
		for c := 0; c < p.in.C; c++ {
			chIn := c * p.in.H * p.in.W
			chOut := c * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := float64(gr[chOut+oy*ow+ox] * inv)
					for ky := 0; ky < p.K; ky++ {
						for kx := 0; kx < p.K; kx++ {
							or[chIn+(oy*p.K+ky)*p.in.W+ox*p.K+kx] += g
						}
					}
				}
			}
		}
	}
	return out
}

// Params implements Layer.
func (p *AvgPool2d) Params() []*Param { return nil }

// GlobalAvgPool averages each channel over all spatial positions.
type GlobalAvgPool struct {
	in Shape
}

// NewGlobalAvgPool returns a global average pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return "gap" }

// Build implements Layer.
func (p *GlobalAvgPool) Build(in Shape, _ *mat.RNG) Shape {
	p.in = in
	return Vec(in.C)
}

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	hw := p.in.H * p.in.W
	inv := 1 / float64(hw)
	y := mat.NewDense(m, p.in.C)
	for i := 0; i < m; i++ {
		xr, yr := x.Row(i), y.Row(i)
		for c := 0; c < p.in.C; c++ {
			var s float64
			for k := 0; k < hw; k++ {
				s += xr[c*hw+k]
			}
			yr[c] = s * inv
		}
	}
	return y
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	hw := p.in.H * p.in.W
	inv := 1 / float64(hw)
	out := mat.NewDense(m, p.in.Numel())
	for i := 0; i < m; i++ {
		gr, or := grad.Row(i), out.Row(i)
		for c := 0; c < p.in.C; c++ {
			g := gr[c] * inv
			for k := 0; k < hw; k++ {
				or[c*hw+k] = g
			}
		}
	}
	return out
}

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Upsample2x doubles the spatial resolution by nearest-neighbour copy; the
// decoder path of the U-Net substitute uses it.
type Upsample2x struct {
	in, out Shape
}

// NewUpsample2x returns a 2× nearest-neighbour upsampling layer.
func NewUpsample2x() *Upsample2x { return &Upsample2x{} }

// Name implements Layer.
func (u *Upsample2x) Name() string { return "upsample2x" }

// Build implements Layer.
func (u *Upsample2x) Build(in Shape, _ *mat.RNG) Shape {
	u.in = in
	u.out = Shape{C: in.C, H: in.H * 2, W: in.W * 2}
	return u.out
}

// Forward implements Layer.
func (u *Upsample2x) Forward(x *mat.Dense, train bool) *mat.Dense {
	m := x.Rows()
	y := mat.NewDense(m, u.out.Numel())
	for i := 0; i < m; i++ {
		xr, yr := x.Row(i), y.Row(i)
		for c := 0; c < u.in.C; c++ {
			for iy := 0; iy < u.in.H; iy++ {
				for ix := 0; ix < u.in.W; ix++ {
					v := xr[c*u.in.H*u.in.W+iy*u.in.W+ix]
					base := c * u.out.H * u.out.W
					yr[base+(2*iy)*u.out.W+2*ix] = v
					yr[base+(2*iy)*u.out.W+2*ix+1] = v
					yr[base+(2*iy+1)*u.out.W+2*ix] = v
					yr[base+(2*iy+1)*u.out.W+2*ix+1] = v
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (u *Upsample2x) Backward(grad *mat.Dense) *mat.Dense {
	m := grad.Rows()
	out := mat.NewDense(m, u.in.Numel())
	for i := 0; i < m; i++ {
		gr, or := grad.Row(i), out.Row(i)
		for c := 0; c < u.in.C; c++ {
			base := c * u.out.H * u.out.W
			for iy := 0; iy < u.in.H; iy++ {
				for ix := 0; ix < u.in.W; ix++ {
					s := gr[base+(2*iy)*u.out.W+2*ix] +
						gr[base+(2*iy)*u.out.W+2*ix+1] +
						gr[base+(2*iy+1)*u.out.W+2*ix] +
						gr[base+(2*iy+1)*u.out.W+2*ix+1]
					or[c*u.in.H*u.in.W+iy*u.in.W+ix] = s
				}
			}
		}
	}
	return out
}

// Params implements Layer.
func (u *Upsample2x) Params() []*Param { return nil }
