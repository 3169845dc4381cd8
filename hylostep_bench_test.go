package repro

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/sched"
)

// benchWorkers pins the scheduler worker count for one benchmark and
// restores it afterwards, so the one-worker baselines stay at one worker
// even when the suite runs on a many-core box.
func benchWorkers(b *testing.B, n int) {
	b.Helper()
	prev := sched.Workers()
	sched.SetWorkers(n)
	b.Cleanup(func() { sched.SetWorkers(prev) })
}

// benchHyLoCNNStep measures one full HyLo training step — forward,
// backward, preconditioner Update (KID) and Precondition, SGD step — on a
// small CNN, with the given scheduler worker count.
func benchHyLoCNNStep(b *testing.B, workers int) {
	benchWorkers(b, workers)
	rng := mat.NewRNG(11)
	in := nn.Shape{C: 3, H: 16, W: 16}
	net := nn.NewNetwork(in, rng,
		nn.NewConv2d(8, 3, 1, 1),
		nn.NewBatchNorm2d(),
		nn.NewReLU(),
		nn.NewConv2d(16, 3, 2, 1),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewLinear(10),
	)
	const m = 32
	x := mat.RandN(rng, m, in.Numel(), 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % 10
	}
	tgt := nn.Target{Labels: labels}
	loss := nn.SoftmaxCrossEntropy{}
	pre := core.NewHyLo(net, 0.03, 0.1, dist.Local(), nil, mat.NewRNG(5))
	pre.Policy = core.FixedSwitch{Mode: core.ModeKID}
	sgd := opt.NewSGD(net.Params(), 0.01, 0.9, 0)
	pre.OnEpochStart(0, false)
	net.SetCapture(true)

	step := func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		_, g := loss.Forward(out, tgt)
		net.Backward(g)
		pre.Update()
		pre.Precondition()
		sgd.Step()
	}
	step() // warm up layer workspaces so b.N measures the steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHyLoStep is the one-worker (sched.SetWorkers(1)) CNN step. Its
// allocs/op is the acceptance metric for the zero-steady-state-allocation
// hot path: after the pooled-workspace conversion the steady state should
// allocate an order of magnitude less than the seed implementation.
func BenchmarkHyLoStep(b *testing.B) { benchHyLoCNNStep(b, 1) }

// BenchmarkHyLoStepParallel is the same step with the layer-parallel
// scheduler at full width. Compare against BenchmarkHyLoStep; the two are
// bit-identical in output (see internal/sched parity tests), so any delta
// is pure scheduling overhead or overlap win.
func BenchmarkHyLoStepParallel(b *testing.B) { benchHyLoCNNStep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkHyLoStepKIS is the same step with the cheap KIS reduction.
func BenchmarkHyLoStepKIS(b *testing.B) {
	rng := mat.NewRNG(11)
	in := nn.Shape{C: 3, H: 16, W: 16}
	net := nn.NewNetwork(in, rng,
		nn.NewConv2d(8, 3, 1, 1),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewLinear(10),
	)
	const m = 32
	x := mat.RandN(rng, m, in.Numel(), 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % 10
	}
	tgt := nn.Target{Labels: labels}
	loss := nn.SoftmaxCrossEntropy{}
	pre := core.NewHyLo(net, 0.03, 0.1, dist.Local(), nil, mat.NewRNG(5))
	pre.Policy = core.FixedSwitch{Mode: core.ModeKIS}
	sgd := opt.NewSGD(net.Params(), 0.01, 0.9, 0)
	pre.OnEpochStart(0, false)
	net.SetCapture(true)

	step := func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		_, g := loss.Forward(out, tgt)
		net.Backward(g)
		pre.Update()
		pre.Precondition()
		sgd.Step()
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// benchHyLoDeepStep measures one HyLo-KID step on a deep MLP — eight
// 256-wide kernel layers, the shape where layer-parallel scheduling has
// real work to overlap: while one layer's reduced kernel is being solved,
// the next layer's factorization runs on another worker.
func benchHyLoDeepStep(b *testing.B, workers int) {
	benchWorkers(b, workers)
	rng := mat.NewRNG(17)
	const width, m, classes = 256, 64, 10
	var layers []nn.Layer
	for i := 0; i < 7; i++ {
		layers = append(layers, nn.NewLinear(width), nn.NewReLU())
	}
	layers = append(layers, nn.NewLinear(classes))
	net := nn.NewNetwork(nn.Vec(width), rng, layers...)
	x := mat.RandN(rng, m, width, 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % classes
	}
	tgt := nn.Target{Labels: labels}
	loss := nn.SoftmaxCrossEntropy{}
	pre := core.NewHyLo(net, 0.03, 0.25, dist.Local(), nil, mat.NewRNG(5))
	pre.Policy = core.FixedSwitch{Mode: core.ModeKID}
	sgd := opt.NewSGD(net.Params(), 0.01, 0.9, 0)
	pre.OnEpochStart(0, false)
	net.SetCapture(true)

	step := func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		_, g := loss.Forward(out, tgt)
		net.Backward(g)
		pre.Update()
		pre.Precondition()
		sgd.Step()
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHyLoStepDeep is the one-worker baseline for the deep-MLP step.
func BenchmarkHyLoStepDeep(b *testing.B) { benchHyLoDeepStep(b, 1) }

// BenchmarkHyLoStepDeepParallel is the layer-parallel deep-MLP step — the
// headline comm/compute-overlap benchmark. On a box with GOMAXPROCS ≥ 4
// it should beat BenchmarkHyLoStepDeep by ≥ 1.8×; on a single core the
// two run the same one-stage-at-a-time schedule.
func BenchmarkHyLoStepDeepParallel(b *testing.B) { benchHyLoDeepStep(b, runtime.GOMAXPROCS(0)) }

// benchHyLoSketchStep measures one HyLo-KID step on a single wide kernel
// layer with an m=512 batch — the regime where the interpolative
// decomposition of the 512×512 Gram kernel dominates the step — under the
// selected sketch mode (SketchOff = exact pivoted-QR ID).
func benchHyLoSketchStep(b *testing.B, sk core.Sketch) {
	benchWorkers(b, 1)
	rng := mat.NewRNG(23)
	const width, m, classes = 64, 512, 10
	net := nn.NewNetwork(nn.Vec(width), rng, nn.NewLinear(classes))
	x := mat.RandN(rng, m, width, 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % classes
	}
	tgt := nn.Target{Labels: labels}
	loss := nn.SoftmaxCrossEntropy{}
	pre := core.NewHyLo(net, 0.03, 0.1, dist.Local(), nil, mat.NewRNG(5))
	pre.Policy = core.FixedSwitch{Mode: core.ModeKID}
	pre.Sketch = sk
	sgd := opt.NewSGD(net.Params(), 0.01, 0.9, 0)
	pre.OnEpochStart(0, false)
	net.SetCapture(true)

	step := func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		_, g := loss.Forward(out, tgt)
		net.Backward(g)
		pre.Update()
		pre.Precondition()
		sgd.Step()
	}
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkHyLoStepSketch compares the KID factorization backends on the
// large-batch step at ≤ 40 allocs/op (recorded in BENCH_baseline.json's
// kid_sketch section). Since the exact ID costs O(m²r) the sketches are
// within ≈ 1.1× of it at this size; see DESIGN.md §5i.
func BenchmarkHyLoStepSketch(b *testing.B) {
	for _, v := range []struct {
		name string
		sk   core.Sketch
	}{{"exact", core.SketchOff}, {"gauss", core.SketchGauss}, {"srht", core.SketchSRHT}} {
		v := v
		b.Run(v.name, func(b *testing.B) { benchHyLoSketchStep(b, v.sk) })
	}
}
