package core

import "math"

// DampingAdapter implements the Levenberg-Marquardt-style damping schedule
// the original KFAC paper uses: the damping shrinks while the loss keeps
// improving (trusting the curvature model more) and grows when a step
// fails to reduce the loss (falling back towards plain gradient descent).
// It extends the paper's fixed-α HyLo with the standard trust-region
// adjustment.
type DampingAdapter struct {
	// Min/Max clamp the damping range.
	Min, Max float64
	// Grow and Shrink are the multiplicative adjustments (defaults 1.5 and
	// 0.9 when zero).
	Grow, Shrink float64

	prevLoss float64
	seen     bool
}

// Observe feeds the adapter one training-loss observation and returns the
// adjusted damping.
//
// A NaN or ±Inf loss is treated as a maximally failed step: the damping
// grows (falling back towards gradient descent), and the poisoned value is
// NOT stored as prevLoss — a NaN baseline would make every later
// comparison false and freeze the schedule open at minimum damping.
func (d *DampingAdapter) Observe(damping, loss float64) float64 {
	grow, shrink := d.Grow, d.Shrink
	if grow <= 1 {
		grow = 1.5
	}
	if shrink <= 0 || shrink >= 1 {
		shrink = 0.9
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		damping *= grow
		return d.clamp(damping)
	}
	if d.seen {
		if loss > d.prevLoss {
			damping *= grow
		} else {
			damping *= shrink
		}
	}
	d.prevLoss = loss
	d.seen = true
	return d.clamp(damping)
}

func (d *DampingAdapter) clamp(damping float64) float64 {
	if d.Min > 0 && damping < d.Min {
		damping = d.Min
	}
	if d.Max > 0 && damping > d.Max {
		damping = d.Max
	}
	return damping
}

// State returns the adapter's observation history (for checkpointing).
func (d *DampingAdapter) State() (prevLoss float64, seen bool) {
	return d.prevLoss, d.seen
}

// Restore rewinds the adapter to a captured observation history.
func (d *DampingAdapter) Restore(prevLoss float64, seen bool) {
	d.prevLoss = prevLoss
	d.seen = seen
}

// SetDamping updates HyLo's damping α (used by the LM adapter between
// epochs; takes effect at the next Update), unless ValidDamping refuses it.
func (h *HyLo) SetDamping(alpha float64) {
	if ValidDamping(alpha) {
		h.Damping = alpha
	}
}

// ValidDamping is the rule for a damping α: positive and finite.
func ValidDamping(alpha float64) bool { return alpha > 0 && !math.IsInf(alpha, 1) }

// CurrentDamping returns HyLo's damping α.
func (h *HyLo) CurrentDamping() float64 { return h.Damping }
