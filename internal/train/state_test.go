package train

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/kfac"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
)

// stateNet is a two-layer MLP whose parameters hold gradients and whose
// layers hold captured activations for one batch of seed's data.
func stateNet(seed uint64) *nn.Network {
	rng := mat.NewRNG(seed)
	net := mlpBuilder(6, 3)(mat.NewRNG(1))
	net.SetCapture(true)
	x := mat.RandN(rng, 12, 10, 1)
	labels := make([]int, 12)
	for i := range labels {
		labels[i] = i % 3
	}
	net.ZeroGrad()
	_, g := nn.SoftmaxCrossEntropy{}.Forward(net.Forward(x, true), nn.Target{Labels: labels})
	net.Backward(g)
	return net
}

// roundTrip loads src's state into dst and requires dst to append the
// very bytes src did.
func roundTrip(t *testing.T, name string, src, dst ckpt.StateSaver) {
	t.Helper()
	b := src.AppendState(nil)
	if err := dst.LoadState(b); err != nil {
		t.Fatalf("%s: LoadState: %v", name, err)
	}
	if got := dst.AppendState(nil); !bytes.Equal(got, b) {
		t.Fatalf("%s: %d bytes appended after the round trip differ from the %d saved", name, len(got), len(b))
	}
}

// TestSaversRoundTripBitForBit: every checkpoint saver restores bit for
// bit into a freshly built twin, the preconditioners both before their
// first update (every factor nil) and after one.
func TestSaversRoundTripBitForBit(t *testing.T) {
	hylo := func(seed uint64, update bool) *core.HyLo {
		net := stateNet(seed)
		h := core.NewHyLo(net, 0.1, 0.5, dist.Local(), nil, mat.NewRNG(seed))
		h.OnEpochStart(0, false)
		if update {
			h.Update()
			h.Precondition()
			h.OnEpochStart(1, false)
		}
		return h
	}
	kf := func(seed uint64, update bool) *kfac.KFAC {
		k := kfac.NewKFAC(stateNet(seed), 0.1, dist.Local(), nil)
		if update {
			k.Update()
		}
		return k
	}
	for _, update := range []bool{false, true} {
		roundTrip(t, "hylo", hylo(3, update), hylo(4, false))
		roundTrip(t, "kfac", kf(3, update), kf(4, false))
	}

	sgdA, adamA := stateNet(5), stateNet(5)
	sgd, adam := opt.NewSGD(sgdA.Params(), 0.1, 0.9, 1e-4), opt.NewAdam(adamA.Params(), 0.01, 0)
	sgd.Step()
	adam.Step()
	roundTrip(t, "sgd", sgd, opt.NewSGD(stateNet(6).Params(), 0.2, 0.9, 1e-4))
	roundTrip(t, "adam", adam, opt.NewAdam(stateNet(6).Params(), 0.2, 0))
	roundTrip(t, "weights", sgdA, stateNet(7))

	rng := mat.NewRNG(8)
	rng.Norm() // leaves a spare normal behind
	roundTrip(t, "rng", rngSaver{key: "rng", rng: rng}, rngSaver{key: "rng", rng: mat.NewRNG(9)})
	it := data.NewBatchIterator(mat.NewRNG(10), 50, 8)
	for i := 0; i < 9; i++ {
		it.Next()
	}
	roundTrip(t, "iterator", it, data.NewBatchIterator(mat.NewRNG(11), 50, 8))
}

// TestLoopStateRoundTrip: the trainer loop's bookkeeping comes back
// field for field; the wall-clock offset, re-read from the clock, to
// within the test's own run time.
func TestLoopStateRoundTrip(t *testing.T) {
	src := &worker{res: &Result{Best: 0.75, FinalLoss: 0.25, TimeToTarget: 3 * time.Second,
		Stats: []EpochStat{{0, 1.5, 0.5, time.Second}, {1, 0.25, 0.75, 2 * time.Second}}},
		adapter: &core.DampingAdapter{}, bestMetric: 0.75, stale: 1, start: time.Now().Add(-time.Hour)}
	src.adapter.Observe(0.1, 2)
	dst := &worker{res: &Result{}, adapter: &core.DampingAdapter{}}
	if err := (*loopState)(dst).LoadState((*loopState)(src).AppendState(nil)); err != nil {
		t.Fatal(err)
	}
	if dst.bestMetric != src.bestMetric || dst.stale != src.stale || dst.res.Best != src.res.Best ||
		dst.res.FinalLoss != src.res.FinalLoss || dst.res.TimeToTarget != src.res.TimeToTarget ||
		len(dst.res.Stats) != 2 || dst.res.Stats[1] != src.res.Stats[1] {
		t.Fatalf("restored %+v / %+v, want %+v / %+v", dst, dst.res, src, src.res)
	}
	if p, s := dst.adapter.State(); p != 2 || !s {
		t.Fatalf("adapter = %v, %v; want 2, true", p, s)
	}
	if d := dst.start.Sub(src.start); d < 0 || d > time.Minute {
		t.Fatalf("start moved by %v", d)
	}
}

// TestBundleEncodeAllocatesOnce: once a save has measured the bundle, the
// next encode of the same state allocates exactly its one buffer.
func TestBundleEncodeAllocatesOnce(t *testing.T) {
	net := stateNet(12)
	h := core.NewHyLo(net, 0.1, 0.5, dist.Local(), nil, mat.NewRNG(12))
	h.Update()
	savers := []ckpt.StateSaver{rngSaver{key: "rng/sample", rng: mat.NewRNG(13)},
		opt.NewSGD(net.Params(), 0.1, 0.9, 0), h}
	var last int
	encodeSections(&last, savers...)
	if n := testing.AllocsPerRun(20, func() { encodeSections(&last, savers...) }); n != 1 {
		t.Fatalf("warmed bundle encode: %v allocations; want 1", n)
	}
}
