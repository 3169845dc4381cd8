// Package opt provides the first-order optimizers (SGD with momentum,
// ADAM) and the Preconditioner contract that second-order methods (KFAC,
// EKFAC, KBFGS-L, SNGD, HyLo) implement: a preconditioner rewrites layer
// gradients in place before the first-order step applies them, mirroring
// the structure of the authors' PyTorch implementation (preconditioner +
// SGD step).
package opt

import (
	"math"

	"repro/internal/nn"
)

// Optimizer applies parameter updates from accumulated gradients.
type Optimizer interface {
	// Step applies one update using the parameters' current gradients.
	Step()
	// SetLR changes the learning rate.
	SetLR(lr float64)
	// LR returns the current learning rate.
	LR() float64
	// StateBytes returns the optimizer-state footprint (Table IV).
	StateBytes() int
	// Name identifies the method in experiment output.
	Name() string
}

// Preconditioner rewrites parameter gradients in place using second-order
// information harvested from per-sample captures.
type Preconditioner interface {
	// Update refreshes second-order state from the latest captures. The
	// trainer calls it on update iterations only (every freq steps).
	Update()
	// Precondition transforms the current gradients in place.
	Precondition()
	// StateBytes returns the preconditioner-state footprint (Table IV).
	StateBytes() int
	// Name identifies the method.
	Name() string
}

// SGD is stochastic gradient descent with momentum and decoupled weight
// decay, matching the paper's baseline configuration.
type SGD struct {
	Params      []*nn.Param
	Momentum    float64
	WeightDecay float64

	lr  float64
	vel []*velocity
}

type velocity struct{ v []float64 }

// NewSGD returns an SGD optimizer over params.
func NewSGD(params []*nn.Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{Params: params, Momentum: momentum, WeightDecay: weightDecay, lr: lr}
	s.vel = make([]*velocity, len(params))
	for i, p := range params {
		s.vel[i] = &velocity{v: make([]float64, p.Numel())}
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for i, p := range s.Params {
		w, g, v := p.W.Data(), p.Grad.Data(), s.vel[i].v
		for j := range w {
			gj := g[j] + s.WeightDecay*w[j]
			v[j] = s.Momentum*v[j] + gj
			w[j] -= s.lr * v[j]
		}
	}
}

// SetLR implements Optimizer.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.lr }

// StateBytes implements Optimizer: one momentum buffer per parameter.
func (s *SGD) StateBytes() int {
	var n int
	for _, p := range s.Params {
		n += p.Numel()
	}
	return n * 8
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "SGD" }

// Adam is the ADAM optimizer with bias correction.
type Adam struct {
	Params            []*nn.Param
	Beta1, Beta2, Eps float64
	WeightDecay       float64
	lr                float64
	step              int
	m, v              [][]float64
}

// NewAdam returns an ADAM optimizer with standard betas.
func NewAdam(params []*nn.Param, lr, weightDecay float64) *Adam {
	a := &Adam{Params: params, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay, lr: lr}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, p.Numel())
		a.v[i] = make([]float64, p.Numel())
	}
	return a
}

// Step implements Optimizer.
func (a *Adam) Step() {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.Params {
		w, g, m, v := p.W.Data(), p.Grad.Data(), a.m[i], a.v[i]
		for j := range w {
			gj := g[j] + a.WeightDecay*w[j]
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*gj
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*gj*gj
			mh := m[j] / c1
			vh := v[j] / c2
			w[j] -= a.lr * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.lr }

// StateBytes implements Optimizer: two moment buffers per parameter.
func (a *Adam) StateBytes() int {
	var n int
	for _, p := range a.Params {
		n += p.Numel()
	}
	return 2 * n * 8
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "ADAM" }

// LRSchedule is a step-decay learning-rate schedule: the LR is multiplied
// by Gamma at each epoch listed in DecayAt. Decayed reports whether the
// most recent Apply call decayed the rate — HyLo's switching heuristic
// treats decay epochs as critical.
type LRSchedule struct {
	Base    float64
	DecayAt []int
	Gamma   float64
}

// At returns the learning rate for epoch e (0-based).
func (s LRSchedule) At(epoch int) float64 {
	lr := s.Base
	for _, d := range s.DecayAt {
		if epoch >= d {
			lr *= s.Gamma
		}
	}
	return lr
}

// DecaysAt reports whether the schedule decays entering epoch e.
func (s LRSchedule) DecaysAt(epoch int) bool {
	for _, d := range s.DecayAt {
		if epoch == d {
			return true
		}
	}
	return false
}

// ClipGradNorm rescales all gradients in place so their global l2 norm is
// at most maxNorm, returning the pre-clip norm. A non-positive maxNorm is
// a no-op.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		n := p.Grad.FrobNorm()
		sq += n * n
	}
	total := math.Sqrt(sq)
	if maxNorm <= 0 || total <= maxNorm || total == 0 {
		return total
	}
	scale := maxNorm / total
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return total
}
