package train

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

// stateNet is an MLP over 10 inputs with the given hidden widths (one
// layer of 6 when none) whose parameters hold gradients and whose layers
// hold captured activations for one batch of seed's data.
func stateNet(seed uint64, hidden ...int) *nn.Network {
	if len(hidden) == 0 {
		hidden = []int{6}
	}
	rng := mat.NewRNG(seed)
	net := models.MLP(nn.Vec(10), hidden, 3, mat.NewRNG(1))
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

// precondState builds the named precondFactories entry over
// stateNet(seed, hidden...), as built (every factor nil) or after two
// updates with a step between them (KBFGS-L harvests its first pair from
// the second).
func precondState(name string, update bool, seed uint64, hidden ...int) opt.Preconditioner {
	net := stateNet(seed, hidden...)
	pre := precondFactories()[name](net, dist.Local(), nil, mat.NewRNG(seed))
	ea, epochAware := pre.(EpochAware)
	if epochAware {
		ea.OnEpochStart(0, false)
	}
	if update {
		pre.Update()
		pre.Precondition()
		for _, p := range net.Params() {
			p.W.AddScaled(p.Grad, -0.1)
		}
		pre.Update()
		if epochAware {
			ea.OnEpochStart(1, false)
		}
	}
	return pre
}

// saverCases builds every checkpoint saver but the trainer loop's over
// stateNet(seed, hidden...): each optimizer after one step, each
// preconditioner after two updates, the weights, an RNG stream and the
// batch iterator (over 50 samples plus the width of the first hidden
// layer beyond 6, so a different hidden list is a different dataset).
func saverCases() map[string]func(seed uint64, hidden ...int) ckpt.StateSaver {
	cases := map[string]func(seed uint64, hidden ...int) ckpt.StateSaver{
		"sgd": func(seed uint64, hidden ...int) ckpt.StateSaver {
			s := opt.NewSGD(stateNet(seed, hidden...).Params(), 0.1*float64(seed), 0.9, 1e-4)
			s.Step()
			return s
		},
		"adam": func(seed uint64, hidden ...int) ckpt.StateSaver {
			a := opt.NewAdam(stateNet(seed, hidden...).Params(), 0.01*float64(seed), 0)
			a.Step()
			return a
		},
		"weights": func(seed uint64, hidden ...int) ckpt.StateSaver {
			net := stateNet(seed, hidden...)
			opt.NewSGD(net.Params(), 0.1, 0, 0).Step()
			return net
		},
		"rng": func(seed uint64, hidden ...int) ckpt.StateSaver {
			rng := mat.NewRNG(seed)
			rng.Norm() // leaves a spare normal behind
			return rngSection("rng", rng)
		},
		"iterator": func(seed uint64, hidden ...int) ckpt.StateSaver {
			n := 50
			if len(hidden) > 0 {
				n += len(hidden) + hidden[0] - 6
			}
			it := data.NewBatchIterator(mat.NewRNG(seed), n, 8)
			for range 9 {
				it.Next()
			}
			return it
		},
	}
	for name := range precondFactories() {
		cases[name] = func(seed uint64, hidden ...int) ckpt.StateSaver {
			return precondState(name, true, seed, hidden...)
		}
	}
	return cases
}

// roundTrip loads src's state into dst and requires dst to append the
// very bytes src did, as many as src's StateBytes said.
func roundTrip(t *testing.T, name string, src, dst ckpt.StateSaver) {
	t.Helper()
	b := src.AppendState(nil)
	if n := src.StateBytes(); n != len(b) {
		t.Fatalf("%s: StateBytes %d, AppendState wrote %d", name, n, len(b))
	}
	if err := dst.LoadState(b); err != nil {
		t.Fatalf("%s: LoadState: %v", name, err)
	}
	if got := dst.AppendState(nil); !bytes.Equal(got, b) {
		t.Fatalf("%s: %d bytes appended after the round trip differ from the %d saved", name, len(got), len(b))
	}
}

// TestSaversRoundTripBitForBit: every checkpoint saver restores bit for
// bit into a freshly built twin, the preconditioners both before their
// first update (every factor nil) and after two.
func TestSaversRoundTripBitForBit(t *testing.T) {
	for name := range precondFactories() {
		built, updated := precondState(name, false, 3), precondState(name, true, 3)
		if len(updated.AppendState(nil)) <= len(built.AppendState(nil)) {
			t.Fatalf("%s: the updates added no checkpoint state", name)
		}
		for _, src := range []opt.Preconditioner{built, updated} {
			roundTrip(t, name, src, precondState(name, false, 4))
		}
	}
	for name, build := range saverCases() {
		roundTrip(t, name, build(3), build(4))
	}
}

// TestFieldsLoadLeavesStateOnError: a section that is truncated, carries
// trailing bytes, was written by a component of another count, shape or
// name, or replaces a field with one that does not fit the component fails
// to load and leaves the saver bit for bit as it was.
func TestFieldsLoadLeavesStateOnError(t *testing.T) {
	for name, build := range saverCases() {
		good := build(3).AppendState(nil)
		bad := map[string][]byte{
			"truncated": good[:len(good)-1],
			"half":      good[:len(good)/2],
			"trailing":  append(bytes.Clone(good), 0),
		}
		if name != "rng" {
			bad["shape"] = build(3, 7).AppendState(nil)
			bad["count"] = build(3, 6, 6).AppendState(nil)
		}
		if name == "weights" {
			// The first parameter's name starts after the parameter count
			// and the name's length.
			b := bytes.Clone(good)
			b[8] ^= 1
			bad["name"] = b
		}
		for what, b := range bad {
			dst := build(4)
			before := dst.AppendState(nil)
			if err := dst.LoadState(b); err == nil {
				t.Fatalf("%s: a %s section loaded", name, what)
			}
			if !bytes.Equal(dst.AppendState(nil), before) {
				t.Fatalf("%s: a failed load of a %s section changed the state", name, what)
			}
		}
	}

	// Sections that pass the list's own checks but do not fit the saver
	// (stateNet's 11×6 and 7×3 layers, the iterator's 50 samples), read
	// and rewritten through a mirror of the saver's list: its Check
	// refuses them.
	var w, g, rho [2][]float64
	var s, y [2][][]float64
	var as, gs, m, aInv, gInv [2]*mat.Dense
	var damping float64
	var init [2]bool
	var pos int
	perm := make([]int, 50)
	kbfgs, sngd, kfac := mat.Fields{uint32(2)}, mat.Fields{uint32(2)}, mat.Fields{&damping, uint32(2)}
	for i, d := range [][2]int{{11, 6}, {7, 3}} {
		kbfgs = append(kbfgs, uint32(d[0]), uint32(d[1]), &w[i], &g[i], &s[i], &y[i], &rho[i])
		sngd = append(sngd, uint32(d[0]), uint32(d[1]), &as[i], &gs[i], &m[i])
		kfac = append(kfac, &init[i], mat.NewDense(d[0], d[0]), mat.NewDense(d[1], d[1]), &aInv[i], &gInv[i])
	}
	for name, c := range map[string]struct {
		list  mat.Fields
		spoil func()
	}{
		"KBFGS-L":  {kbfgs, func() { w[0] = w[0][:1] }},
		"SNGD":     {sngd, func() { m[0] = mat.NewDense(1, 1) }},
		"KFAC":     {kfac, func() { gInv[1] = nil }},
		"iterator": {mat.Fields{&pos, perm, mat.NewRNG(0)}, func() { perm[0] = 50 }},
	} {
		build := saverCases()[name]
		if err := c.list.Load(build(3).AppendState(nil)); err != nil {
			t.Fatalf("%s: the mirror list: %v", name, err)
		}
		c.spoil()
		dst := build(4)
		before := dst.AppendState(nil)
		if err := dst.LoadState(c.list.Append(nil)); err == nil {
			t.Fatalf("%s: a section that does not fit the saver loaded", name)
		}
		if !bytes.Equal(dst.AppendState(nil), before) {
			t.Fatalf("%s: a failed load of a misfit section changed the state", name)
		}
	}
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
	b := (*loopState)(src).AppendState(nil)
	if n := (*loopState)(src).StateBytes(); n != len(b) {
		t.Fatalf("StateBytes %d, AppendState wrote %d", n, len(b))
	}
	if err := (*loopState)(dst).LoadState(b); err != nil {
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

// TestBundleEncodeAllocatesOnce: a bundle encode allocates exactly its
// one buffer, sized from the savers to the bundle's length.
func TestBundleEncodeAllocatesOnce(t *testing.T) {
	net := stateNet(12)
	h := core.NewHyLo(net, 0.1, 0.5, dist.Local(), nil, mat.NewRNG(12))
	h.Update()
	savers := []ckpt.StateSaver{rngSection("rng/sample", mat.NewRNG(13)),
		opt.NewSGD(net.Params(), 0.1, 0.9, 0), h}
	if b := ckpt.EncodeSections(savers...); len(b) != cap(b) {
		t.Fatalf("bundle of %d bytes encoded into a buffer of %d", len(b), cap(b))
	}
	if n := testing.AllocsPerRun(20, func() { ckpt.EncodeSections(savers...) }); n != 1 {
		t.Fatalf("bundle encode: %v allocations; want 1", n)
	}
}
