package harness

import (
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/train"
)

// microReps is how often each microbench repeats at benchmark size;
// medians of so few samples are coarse, which is why none of these is an
// end-to-end metric.
const microReps = 3

// timeMs runs fn and returns its duration in milliseconds.
func timeMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / 1e6
}

// medianMs is the median duration of reps calls of fn, in milliseconds.
func medianMs(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = timeMs(fn)
	}
	return Median(xs)
}

// forwardBackward runs one forward and backward pass on a fresh batch
// without touching the weights.
func (l *rankLoop) forwardBackward(capture bool) {
	p, rank := l.comm.Size(), l.comm.ID()
	idx := l.it.Next()
	per := len(idx) / p
	x, tgt := l.t.train.Batch(idx[rank*per : (rank+1)*per])
	l.net.SetCapture(capture)
	l.net.ZeroGrad()
	_, g := nn.SoftmaxCrossEntropy{}.Forward(l.net.Forward(x, true), tgt)
	l.net.Backward(g)
}

// barrier lines the ranks up, where the transport has a barrier.
func (l *rankLoop) barrier() {
	if b, ok := dist.AsBarrier(l.comm); ok {
		b.Barrier()
	}
}

// afterLoop measures, on the live state the traced loop left behind, the
// layer metrics a per-step span cannot give. Every rank runs it, because
// Update is collective; rank 0 records.
func afterLoop(r *Result, l *rankLoop, procs, reps int) {
	rank0 := l.comm.ID() == 0
	spec := l.t.spec

	// Capture cost: the same pass with and without per-sample capture.
	var off, on []float64
	for i := 0; i < reps; i++ {
		off = append(off, timeMs(func() { l.forwardBackward(false) }))
		on = append(on, timeMs(func() { l.forwardBackward(true) }))
	}
	if rank0 {
		r.Set("nn.capture_extra_ms", Median(on)-Median(off), reps)
		r.Set("sched.tokens_high_water", float64(sched.Tokens().HighWater()), 1)
	}

	// Update at one scheduler worker against two: what layer parallelism
	// buys when a core is idle (one rank, -procs 2) and when none is (two
	// ranks, or the default one processor, where it reads 1). Rank 0 flips
	// the process-wide setting between barriers and puts it back.
	var w1, wN []float64
	for i := 0; i < reps; i++ {
		for _, w := range []int{1, 2} {
			if rank0 {
				sched.SetWorkers(w)
			}
			l.barrier()
			ms := timeMs(l.pre.Update)
			l.barrier()
			if w == 1 {
				w1 = append(w1, ms)
			} else {
				wN = append(wN, ms)
			}
		}
	}
	if !rank0 {
		return
	}
	sched.SetWorkers(procs)
	if m := Median(wN); m > 0 {
		r.Set("sched.update_speedup", Median(w1)/m, reps)
	}
	r.Set(spec.preLayer()+".state_kb", float64(l.pre.StateBytes())/1024, 1)
	// Before the evaluation: its forward pass overwrites the captured A.
	factorKernels(r, l, reps)
	r.Set("train.eval_ms", medianMs(reps, func() {
		train.Evaluate(l.net, l.t.test, train.Classification())
	}), reps)
}

// factorKernels times the three reductions directly on the widest kernel
// layer's captured factors, scaled and ranked as HyLo.Update does.
func factorKernels(r *Result, l *rankLoop, reps int) {
	var a, g *mat.Dense
	for _, kl := range l.net.KernelLayers() {
		ca, cg := kl.Capture()
		if ca != nil && (a == nil || ca.Cols()*cg.Cols() > a.Cols()*g.Cols()) {
			a, g = ca, cg
		}
	}
	if a == nil {
		return
	}
	p := l.comm.Size()
	mGlob := a.Rows() * p
	rho := max(1, int(0.1*float64(mGlob))/p)
	const damping = 0.1
	rng := mat.NewRNG(l.t.cfg.Seed + 7)
	r.Set("core.kid_factors_ms", medianMs(reps, func() {
		_, _, _, _ = core.KIDFactors(a, g, rho, damping)
	}), reps)
	r.Set("core.kis_factors_ms", medianMs(reps, func() {
		core.KISFactors(rng, a, g, rho, true)
	}), reps)
	r.Set("core.kid_sketch_srht_ms", medianMs(reps, func() {
		// An unhealthy sketch returns an error and the caller falls back;
		// either way this is the sketch's cost.
		_, _, _, _ = core.KIDFactorsSketch(rng, a, g, rho, damping, core.DefaultOversample, core.SketchSRHT)
	}), reps)
}

// telemetryOverhead alternates steps with the program's telemetry enabled
// and disabled and returns how much longer the enabled ones take, in
// percent. Every rank runs it; rank 0 flips the switch between barriers.
func telemetryOverhead(l *rankLoop, pairs int) float64 {
	var off, on []float64
	for i := 0; i < 2*pairs; i++ {
		enabled := i%2 == 1
		if l.comm.ID() == 0 {
			telemetry.SetEnabled(enabled)
		}
		l.barrier()
		ms := timeMs(func() { l.oneStep() })
		l.barrier()
		if enabled {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	if l.comm.ID() == 0 {
		telemetry.SetEnabled(false)
	}
	l.barrier()
	if m := Median(off); m > 0 {
		return 100 * (Median(on)/m - 1)
	}
	return 0
}
