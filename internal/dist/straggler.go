package dist

import (
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// StragglerModel extends the cost model with per-worker speed variation:
// synchronous data-parallel training runs at the pace of the slowest
// worker, so a heavy-tailed slowdown distribution erodes scaling — an
// effect the paper's synchronous collectives are equally exposed to.
type StragglerModel struct {
	// Base is the homogeneous per-worker cost model.
	Base CostModel
	// Slowdowns holds one multiplicative factor ≥ 1 per worker.
	Slowdowns []float64
}

// NewStragglerModel draws worker slowdowns from 1 + |N(0, sigma)|, a
// half-normal jitter around nominal speed.
func NewStragglerModel(base CostModel, sigma float64, rng *mat.RNG) StragglerModel {
	s := StragglerModel{Base: base, Slowdowns: make([]float64, base.Workers)}
	for i := range s.Slowdowns {
		j := rng.Norm() * sigma
		if j < 0 {
			j = -j
		}
		s.Slowdowns[i] = 1 + j
	}
	return s
}

// MaxSlowdown returns the factor of the slowest worker — the synchronous
// step-time multiplier.
func (s StragglerModel) MaxSlowdown() float64 {
	worst := 1.0
	for _, v := range s.Slowdowns {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// StepTime returns the synchronous step time given the homogeneous compute
// time per worker: compute stretches by the slowest worker, communication
// is unchanged (links, not cores).
func (s StragglerModel) StepTime(compute, comm float64) float64 {
	t := float64(compute*s.MaxSlowdown()) + comm
	// Straggler loss feeds the observability layer: the overhead
	// histogram drives the "how much does jitter cost" dashboards.
	telemetry.Observe("dist_straggler_overhead_seconds", t-(compute+comm))
	return t
}

// Efficiency returns the ratio of ideal (homogeneous) to straggled step
// time: 1 means no straggler loss.
func (s StragglerModel) Efficiency(compute, comm float64) float64 {
	ideal := compute + comm
	real := s.StepTime(compute, comm)
	if real == 0 {
		return 1
	}
	return ideal / real
}
