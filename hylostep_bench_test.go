// The root package's tests run one HyLo training step — forward,
// backward, preconditioner Update and Precondition, SGD step — on the
// fixtures below. The step benchmarks time it:
//
//	go test -run='^$' -bench=HyLoStep -benchmem .
//
// and TestStepAllocs pins what one warmed step allocates, so the pin and
// the benchmark measure the same code. cmd/hylo-bench runs the paper's
// tables and figures, and internal/bench's tests run each of them.

package repro

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/opt"
	"repro/internal/sched"
)

// stepFixture is one preconditioned training step on a fixed batch of m
// samples with labels i mod 10: HyLo at damping 0.03 under SGD with
// momentum 0.9.
type stepFixture struct {
	name     string
	seed     uint64 // draws the weights, then the batch
	in       nn.Shape
	layers   func() []nn.Layer
	m        int
	rankFrac float64
	mode     core.Mode
	sketch   core.Sketch
	lr       float64
	// allocs is what one warmed step allocates at one scheduler worker.
	allocs float64
}

func cnnLayers() []nn.Layer {
	return []nn.Layer{nn.NewConv2d(8, 3, 1, 1), nn.NewBatchNorm2d(), nn.NewReLU(),
		nn.NewConv2d(16, 3, 2, 1), nn.NewReLU(), nn.NewFlatten(), nn.NewLinear(10)}
}

func kisLayers() []nn.Layer {
	return []nn.Layer{nn.NewConv2d(8, 3, 1, 1), nn.NewReLU(), nn.NewFlatten(), nn.NewLinear(10)}
}

// deepLayers is eight 256-wide kernel layers, the shape where
// layer-parallel scheduling has work to overlap: while one layer's reduced
// kernel is solved, the next layer's factorization can run on another
// worker.
func deepLayers() []nn.Layer {
	var layers []nn.Layer
	for i := 0; i < 7; i++ {
		layers = append(layers, nn.NewLinear(256), nn.NewReLU())
	}
	return append(layers, nn.NewLinear(10))
}

// sketchLayers is one kernel layer; at an m = 512 batch the interpolative
// decomposition of its 512×512 Gram kernel dominates the step.
func sketchLayers() []nn.Layer { return []nn.Layer{nn.NewLinear(10)} }

var stepFixtures = []stepFixture{
	{name: "cnn", seed: 11, in: nn.Shape{C: 3, H: 16, W: 16}, layers: cnnLayers,
		m: 32, rankFrac: 0.1, mode: core.ModeKID, lr: 0.01, allocs: 12},
	{name: "kis", seed: 11, in: nn.Shape{C: 3, H: 16, W: 16}, layers: kisLayers,
		m: 32, rankFrac: 0.1, mode: core.ModeKIS, lr: 0.01, allocs: 17},
	// At lr 0.01 the deep fixture diverges (NaN loss by step 20, every
	// layer's KID solve on the fallback ladder); at 0.001 it trains.
	{name: "deep", seed: 17, in: nn.Vec(256), layers: deepLayers,
		m: 64, rankFrac: 0.25, mode: core.ModeKID, lr: 0.001, allocs: 27},
	{name: "sketch-exact", seed: 23, in: nn.Vec(64), layers: sketchLayers,
		m: 512, rankFrac: 0.1, mode: core.ModeKID, sketch: core.SketchOff, lr: 0.01, allocs: 6},
	{name: "sketch-gauss", seed: 23, in: nn.Vec(64), layers: sketchLayers,
		m: 512, rankFrac: 0.1, mode: core.ModeKID, sketch: core.SketchGauss, lr: 0.01, allocs: 6},
	{name: "sketch-srht", seed: 23, in: nn.Vec(64), layers: sketchLayers,
		m: 512, rankFrac: 0.1, mode: core.ModeKID, sketch: core.SketchSRHT, lr: 0.01, allocs: 6},
}

func fixture(tb testing.TB, name string) stepFixture {
	for _, f := range stepFixtures {
		if f.name == name {
			return f
		}
	}
	tb.Fatalf("no step fixture %q", name)
	return stepFixture{}
}

// stepRun is a built fixture: step runs one training step and records its
// loss; start is the numerics monitor when the fixture was built.
type stepRun struct {
	step  func()
	loss  float64
	start numerics.Snapshot
}

func (f stepFixture) build() *stepRun {
	r := &stepRun{start: numerics.Default().Snapshot()}
	rng := mat.NewRNG(f.seed)
	net := nn.NewNetwork(f.in, rng, f.layers()...)
	x := mat.RandN(rng, f.m, f.in.Numel(), 1)
	labels := make([]int, f.m)
	for i := range labels {
		labels[i] = i % 10
	}
	tgt := nn.Target{Labels: labels}
	loss := nn.SoftmaxCrossEntropy{}
	pre := core.NewHyLo(net, 0.03, f.rankFrac, dist.Local(), nil, mat.NewRNG(5))
	pre.Policy = core.FixedSwitch{Mode: f.mode}
	pre.Sketch = f.sketch
	sgd := opt.NewSGD(net.Params(), f.lr, 0.9, 0)
	pre.OnEpochStart(0, false)
	net.SetCapture(true)
	r.step = func() {
		net.ZeroGrad()
		out := net.Forward(x, true)
		var g *mat.Dense
		r.loss, g = loss.Forward(out, tgt)
		net.Backward(g)
		pre.Update()
		pre.Precondition()
		sgd.Step()
	}
	return r
}

// checkHealthy fails tb when the run left the path its fixture names: a
// non-finite loss, or a numerics retry, fallback or scrub since the fixture
// was built. A step that took the degradation ladder times the ladder.
func (r *stepRun) checkHealthy(tb testing.TB) {
	tb.Helper()
	now := numerics.Default().Snapshot()
	retries := now.TotalRetries() - r.start.TotalRetries()
	fallbacks := now.TotalFallbacks() - r.start.TotalFallbacks()
	scrubs := now.Scrubs - r.start.Scrubs
	if math.IsNaN(r.loss) || math.IsInf(r.loss, 0) || retries != 0 || fallbacks != 0 || scrubs != 0 {
		tb.Fatalf("unhealthy run: last loss %g, %d damping retries, %d fallbacks, %d scrubs",
			r.loss, retries, fallbacks, scrubs)
	}
}

// withWorkers pins the scheduler worker count for one test or benchmark
// and restores it afterwards, so the one-worker rows stay at one worker on
// a many-core box.
func withWorkers(tb testing.TB, n int) {
	tb.Helper()
	prev := sched.Workers()
	sched.SetWorkers(n)
	tb.Cleanup(func() { sched.SetWorkers(prev) })
}

// benchStep times the named fixture's step at the given scheduler width,
// after one warm-up step fills the layer workspaces, and fails the
// benchmark if the run was unhealthy.
func benchStep(b *testing.B, name string, workers int) {
	withWorkers(b, workers)
	r := fixture(b, name).build()
	r.step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.step()
	}
	b.StopTimer()
	r.checkHealthy(b)
}

// TestStepAllocs pins, exactly, what one warmed step of every fixture
// allocates at one scheduler worker, and that the fixture trains healthily
// while it is measured. The race detector drops sync.Pool puts, so the
// pins hold only without it.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts")
	}
	withWorkers(t, 1)
	for _, f := range stepFixtures {
		t.Run(f.name, func(t *testing.T) {
			r := f.build()
			r.step()
			// A collection empties the workspace pools, so the window
			// starts just after one instead of at an arbitrary point.
			runtime.GC()
			if got := testing.AllocsPerRun(5, r.step); got != f.allocs {
				t.Errorf("%v allocs per warmed step; want %v", got, f.allocs)
			}
			r.checkHealthy(t)
		})
	}
}

// BenchmarkHyLoStep is the one-worker CNN step with KID.
func BenchmarkHyLoStep(b *testing.B) { benchStep(b, "cnn", 1) }

// BenchmarkHyLoStepParallel is the same step with the layer-parallel
// scheduler at full width. The two are bit-identical in output (see
// internal/sched's parity tests), so any delta is scheduling overhead or
// overlap win.
func BenchmarkHyLoStepParallel(b *testing.B) { benchStep(b, "cnn", runtime.GOMAXPROCS(0)) }

// BenchmarkHyLoStepKIS is a CNN step with the cheap KIS reduction.
func BenchmarkHyLoStepKIS(b *testing.B) { benchStep(b, "kis", 1) }

// BenchmarkHyLoStepDeep is the one-worker deep-MLP step.
func BenchmarkHyLoStepDeep(b *testing.B) { benchStep(b, "deep", 1) }

// BenchmarkHyLoStepDeepParallel is the layer-parallel deep-MLP step, the
// comm/compute-overlap row; on one core the two run the same
// one-stage-at-a-time schedule.
func BenchmarkHyLoStepDeepParallel(b *testing.B) { benchStep(b, "deep", runtime.GOMAXPROCS(0)) }

// BenchmarkHyLoStepSketch compares the KID factorization backends on the
// large-batch step: the exact pivoted-QR ID and the Gaussian and SRHT
// sketches of it. The exact ID costs O(m²r), so at this size the sketches
// are within ≈ 1.1× of it; see DESIGN.md §5i.
func BenchmarkHyLoStepSketch(b *testing.B) {
	for _, name := range []string{"exact", "gauss", "srht"} {
		b.Run(name, func(b *testing.B) { benchStep(b, "sketch-"+name, 1) })
	}
}
