package bench

import (
	"repro/internal/dist"
	"repro/internal/models"
)

// PhaseCost is a per-update-iteration cost breakdown in seconds, the
// quantity Figs. 3 and 7 plot.
type PhaseCost struct {
	Factorize, Invert, Gather, Broadcast float64
}

// Computation returns factorization + inversion time.
func (p PhaseCost) Computation() float64 { return p.Factorize + p.Invert }

// Communication returns gather + broadcast time.
func (p PhaseCost) Communication() float64 { return p.Gather + p.Broadcast }

// Total returns the full per-update cost.
func (p PhaseCost) Total() float64 { return p.Computation() + p.Communication() }

// mix weighs a KID and a KIS cost into HyLo's effective one: the paper's
// switching uses KID in ~30% of ResNet-50 epochs.
func mix(kid, kis float64) float64 { return float64(0.3*kid) + float64(0.7*kis) }

// hyloMix is mix for every phase.
func hyloMix(kid, kis PhaseCost) PhaseCost {
	return PhaseCost{mix(kid.Factorize, kis.Factorize), mix(kid.Invert, kis.Invert),
		mix(kid.Gather, kis.Gather), mix(kid.Broadcast, kis.Broadcast)}
}

// invParallel is the parallel speedup of the layer-assigned inversion step:
// inversion work spreads across min(P, L) workers.
func invParallel(cm dist.CostModel, layers int) float64 {
	p := cm.Workers
	if layers < p {
		p = layers
	}
	if p < 1 {
		p = 1
	}
	return float64(p)
}

// KFACSchedule returns the per-update cost of distributed KFAC (KAISA
// schedule) on the model: factor GEMMs, factor all-reduce, eigendecomposed
// inversion on assigned layers, inverse broadcast.
func KFACSchedule(md models.ModelDesc, cm dist.CostModel, m int) PhaseCost {
	var c PhaseCost
	for _, l := range md.Layers {
		// Per-sample rows entering the factors: conv layers contribute one
		// row per spatial output position.
		rows := m * l.SpatialOut
		c.Factorize += cm.GEMM(l.DIn, l.DIn, rows) + cm.GEMM(l.DOut, l.DOut, rows)
		c.Gather += cm.AllReduce(l.DIn*l.DIn) + cm.AllReduce(l.DOut*l.DOut)
		c.Invert += cm.EigenDecomp(l.DIn) + cm.EigenDecomp(l.DOut)
		c.Broadcast += cm.Broadcast(l.DIn*l.DIn) + cm.Broadcast(l.DOut*l.DOut)
	}
	c.Invert /= invParallel(cm, len(md.Layers))
	return c
}

// SNGDSchedule returns the per-update cost of standard distributed SNGD:
// factor gather at local size, global-batch kernel construction and
// inversion, kernel broadcast. M = P·m is the kernel dimension.
func SNGDSchedule(md models.ModelDesc, cm dist.CostModel, m int) PhaseCost {
	var c PhaseCost
	mGlob := m * cm.Workers
	for _, l := range md.Layers {
		c.Gather += cm.AllGather(m * (l.DIn + l.DOut))
		c.Invert += cm.GEMM(mGlob, mGlob, l.DIn) + cm.GEMM(mGlob, mGlob, l.DOut) +
			cm.Inverse(mGlob)
		c.Broadcast += cm.Broadcast(mGlob * mGlob)
	}
	c.Invert /= invParallel(cm, len(md.Layers))
	return c
}

// HyLoKIDSchedule returns the per-update cost of HyLo's KID path:
// local Gram + pivoted-QR ID + residual inverse, gather of the rank-ρ
// factors and Y blocks, reduced r×r kernel inversion, r² broadcast.
func HyLoKIDSchedule(md models.ModelDesc, cm dist.CostModel, m int, rankFrac float64) PhaseCost {
	var c PhaseCost
	mGlob := m * cm.Workers
	r := int(rankFrac * float64(mGlob))
	if r < 1 {
		r = 1
	}
	rho := r / cm.Workers
	if rho < 1 {
		rho = 1
	}
	for _, l := range md.Layers {
		// Local: Q = AAᵀ∘GGᵀ (m²·d), ID (m²·ρ), (R+αI)⁻¹ (m³), Y (ρ²m).
		c.Factorize += cm.GEMM(m, m, l.DIn) + cm.GEMM(m, m, l.DOut) +
			cm.PivotedQR(m, m, rho) + cm.Inverse(m) + cm.GEMM(rho, rho, m)
		c.Gather += cm.AllGather(rho*(l.DIn+l.DOut) + rho*rho)
		c.Invert += cm.GEMM(r, r, l.DIn) + cm.GEMM(r, r, l.DOut) + cm.Inverse(r)
		c.Broadcast += cm.Broadcast(r * r)
	}
	c.Invert /= invParallel(cm, len(md.Layers))
	return c
}

// HyLoKISSchedule returns the per-update cost of HyLo's KIS path: one-pass
// norm scoring, rank-ρ factor gather, reduced kernel inversion, broadcast.
func HyLoKISSchedule(md models.ModelDesc, cm dist.CostModel, m int, rankFrac float64) PhaseCost {
	var c PhaseCost
	mGlob := m * cm.Workers
	r := int(rankFrac * float64(mGlob))
	if r < 1 {
		r = 1
	}
	rho := r / cm.Workers
	if rho < 1 {
		rho = 1
	}
	for _, l := range md.Layers {
		c.Factorize += cm.RowNormSample(m, l.DIn+l.DOut)
		c.Gather += cm.AllGather(rho * (l.DIn + l.DOut))
		c.Invert += cm.GEMM(r, r, l.DIn) + cm.GEMM(r, r, l.DOut) + cm.Inverse(r)
		c.Broadcast += cm.Broadcast(r * r)
	}
	c.Invert /= invParallel(cm, len(md.Layers))
	return c
}

// ForwardBackward returns the per-iteration forward+backward time for a
// local batch of m samples (2 FLOPs/MAC forward, ≈2× that backward).
func ForwardBackward(md models.ModelDesc, cm dist.CostModel, m int) float64 {
	var t float64
	for _, l := range md.Layers {
		t += float64(3 * cm.GEMM(m*l.SpatialOut, l.DOut, l.DIn))
	}
	return t
}

// GradAllReduce returns the per-iteration gradient synchronization time.
func GradAllReduce(md models.ModelDesc, cm dist.CostModel) float64 {
	return cm.AllReduce(md.Params())
}

// ApplyCost returns the per-iteration preconditioner application time.
// HyLo/SNGD apply Uᵀ M U g via two r×(dIn·dOut) products per layer; KFAC
// applies two dense triple products.
func ApplyCost(md models.ModelDesc, cm dist.CostModel, r int, kfac bool) float64 {
	var t float64
	for _, l := range md.Layers {
		if kfac {
			t += cm.GEMM(l.DIn, l.DOut, l.DIn) + cm.GEMM(l.DIn, l.DOut, l.DOut)
		} else {
			t += 2 * cm.GEMM(r, 1, l.DIn*l.DOut)
		}
	}
	return t
}

// IterationCost returns the full per-iteration training cost of a method:
// forward/backward + gradient all-reduce + apply + amortized second-order
// update (update cost / freq). secondOrder may be the zero PhaseCost for
// first-order methods.
func IterationCost(md models.ModelDesc, cm dist.CostModel, m int,
	secondOrder PhaseCost, applyR int, kfacApply bool, freq int) float64 {

	t := ForwardBackward(md, cm, m) + GradAllReduce(md, cm)
	if secondOrder.Total() > 0 {
		if freq < 1 {
			freq = 1
		}
		t += secondOrder.Total() / float64(freq)
		t += ApplyCost(md, cm, applyR, kfacApply)
	}
	return t
}
