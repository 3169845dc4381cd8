package models

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
)

// inputSpy stands in for a Conv2d and holds the Layer contract's clause
// about inputs to account: the matrix Forward was given must be unchanged,
// bit for bit, when the layer's Backward starts. With proj set it checks
// again after its own Backward: the spied layer is then the first of a
// Residual body, whose projection conv was given the same matrix and runs
// its Backward next.
type inputSpy struct {
	nn.Layer
	t    *testing.T
	proj bool
	x    *mat.Dense
	snap []float64
}

func (s *inputSpy) Forward(x *mat.Dense, train bool) *mat.Dense {
	y := s.Layer.Forward(x, train)
	s.x, s.snap = x, append(s.snap[:0], x.Data()...)
	return y
}

func (s *inputSpy) Backward(grad *mat.Dense) *mat.Dense {
	s.check("its Backward")
	gin := s.Layer.Backward(grad)
	if s.proj {
		s.check("the projection's Backward")
	}
	return gin
}

func (s *inputSpy) check(when string) {
	for i, v := range s.x.Data() {
		if math.Float64bits(v) != math.Float64bits(s.snap[i]) {
			s.t.Fatalf("%s: input element %d changed from %v to %v before %s", s.Name(), i, s.snap[i], v, when)
		}
	}
}

// spyConvs replaces every Conv2d under layers with an inputSpy and returns
// how many conv inputs are now watched.
func spyConvs(t *testing.T, layers []nn.Layer) int {
	n := 0
	for i, l := range layers {
		switch l := l.(type) {
		case *nn.Conv2d:
			layers[i] = &inputSpy{Layer: l, t: t}
			n++
		case *nn.Residual:
			n += spyConvs(t, l.Body.Layers)
			if l.Proj != nil {
				l.Body.Layers[0].(*inputSpy).proj = true
				n++
			}
		}
	}
	return n
}

// TestConvInputsUnmodifiedUntilBackward walks the conv models: Conv2d's
// Backward reads the saved input a second time, so nothing between a
// conv's Forward and its Backward — a later layer writing in place, a
// Residual adding into a buffer — may touch it.
func TestConvInputsUnmodifiedUntilBackward(t *testing.T) {
	in := nn.Shape{C: 3, H: 16, W: 16}
	for name, build := range map[string]func(*mat.RNG) *nn.Network{
		"ResNetCIFAR":  func(rng *mat.RNG) *nn.Network { return ResNetCIFAR(in, 2, 4, 10, rng) },
		"DenseNetLite": func(rng *mat.RNG) *nn.Network { return DenseNetLite(in, 4, 10, rng) },
	} {
		rng := mat.NewRNG(11)
		net := build(rng)
		if n := spyConvs(t, net.Layers); n < 4 {
			t.Fatalf("%s: only %d conv inputs found", name, n)
		}
		for step := 0; step < 2; step++ { // the second step reuses every buffer
			out := net.Forward(mat.RandN(rng, 5, in.Numel(), 1), true)
			net.Backward(mat.RandN(rng, out.Rows(), out.Cols(), 1))
		}
	}
}
