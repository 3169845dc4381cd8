package kfac

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
)

func capturedLinearNet(seed uint64, m, in, out int) *nn.Network {
	rng := mat.NewRNG(seed)
	net := nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
	net.SetCapture(true)
	x := mat.RandN(rng, m, in, 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = i % out
	}
	logits := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: labels})
	net.ZeroGrad()
	net.Backward(g)
	return net
}

// TestKFACMatchesAnalytic checks Precondition against the explicit
// (AᵀA/m + γI)⁻¹ · grad · (GᵀG/m + γI)⁻¹ on the first update.
func TestKFACMatchesAnalytic(t *testing.T) {
	const m, in, out, damping = 10, 4, 3, 0.1
	net := capturedLinearNet(1, m, in, out)
	l := net.KernelLayers()[0]
	a, g := l.Capture()
	grad := l.Weight().Grad.Clone()

	k := NewKFAC(net, damping, dist.Local(), nil)
	k.Update()
	k.Precondition()
	got := l.Weight().Grad

	gamma := math.Sqrt(damping)
	fa := mat.GramT(a).Scale(1 / float64(m)).AddDiag(gamma)
	fg := mat.GramT(g).Scale(1 / float64(m)).AddDiag(gamma)
	faInv, err := mat.InvSPD(fa)
	if err != nil {
		t.Fatal(err)
	}
	fgInv, err := mat.InvSPD(fg)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.Mul(faInv, mat.Mul(grad, fgInv))
	if d := mat.MaxAbsDiff(got, want); d > 1e-8 {
		t.Fatalf("KFAC differs from analytic Kronecker inverse by %g", d)
	}
}

// TestKFACDistributedMatchesLocal: the factor all-reduce averages the
// per-worker covariances; with identical shards the result must equal the
// single-worker run.
func TestKFACDistributedMatchesLocal(t *testing.T) {
	const p, m, in, out, damping = 4, 8, 3, 2, 0.2
	ref := capturedLinearNet(5, m, in, out)
	refL := ref.KernelLayers()[0]
	gradFull := refL.Weight().Grad.Clone()
	kRef := NewKFAC(ref, damping, dist.Local(), nil)
	kRef.Update()
	kRef.Precondition()
	want := refL.Weight().Grad.Clone()

	results := make([]*mat.Dense, p)
	cluster := dist.NewCluster(p)
	cluster.Run(func(w *dist.Worker) {
		// Every worker sees the same local batch, so averaged factors equal
		// the local ones. The factor computation scales by m·P — feed the
		// same captures on each worker.
		net := capturedLinearNet(5, m, in, out)
		l := net.KernelLayers()[0]
		l.Weight().Grad.CopyFrom(gradFull)
		k := NewKFAC(net, damping, w, nil)
		k.Update()
		k.Precondition()
		results[w.Rank] = l.Weight().Grad.Clone()
	})
	for r := 0; r < p; r++ {
		// Factors computed at m·P normalization with P identical shards
		// equal factors at m with one shard scaled by 1... the allreduce
		// sums P copies of (AᵀA)/(mP) = AᵀA/m — identical to local. Exact.
		if d := mat.MaxAbsDiff(results[r], want); d > 1e-9 {
			t.Fatalf("rank %d: distributed KFAC differs by %g", r, d)
		}
	}
}

func TestKFACRunningAverage(t *testing.T) {
	// Two updates: the factor must be a Decay-weighted blend, which shows
	// up as a different preconditioned result than a fresh first update.
	net := capturedLinearNet(2, 12, 4, 3)
	k := NewKFAC(net, 0.1, dist.Local(), nil)
	k.Update()
	firstInv := k.state[0].aInv.Clone()
	// New pass with different data.
	rng := mat.NewRNG(777)
	x := mat.RandN(rng, 12, 4, 2)
	logits := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}})
	net.ZeroGrad()
	net.Backward(g)
	k.Update()
	if d := mat.MaxAbsDiff(firstInv, k.state[0].aInv); d == 0 {
		t.Fatal("running average did not incorporate the second factor")
	}
}

func TestEKFACPreconditionFinite(t *testing.T) {
	net := capturedLinearNet(3, 10, 5, 4)
	e := NewEKFAC(net, 0.1, dist.Local(), nil)
	e.Update()
	e.Precondition()
	for _, v := range net.KernelLayers()[0].Weight().Grad.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("EKFAC produced non-finite gradient")
		}
	}
}

// EKFAC with its diagonal estimated from the same single gradient should
// reduce that gradient's own curvature-weighted norm — at minimum it must
// shrink the gradient compared to raw (the scale ≥ damping keeps it
// bounded).
func TestEKFACShrinksAlongObservedDirections(t *testing.T) {
	net := capturedLinearNet(4, 16, 5, 3)
	l := net.KernelLayers()[0]
	raw := l.Weight().Grad.Clone()
	e := NewEKFAC(net, 0.01, dist.Local(), nil)
	e.Update()
	e.Precondition()
	pg := l.Weight().Grad
	// The projected squared-gradient scale makes the preconditioned
	// gradient norm ≤ raw/damping; sanity-check finiteness + shrinkage
	// direction (strictly smaller than naive 1/damping blow-up).
	if pg.FrobNorm() >= raw.FrobNorm()/0.01 {
		t.Fatalf("EKFAC norm %g not below %g", pg.FrobNorm(), raw.FrobNorm()/0.01)
	}
}

// A warmed Update+Precondition on one rank allocates no d×d matrix: the
// owner inverts into buffers it keeps and broadcasts those, and every other
// factor-sized intermediate is pooled.
func TestKFACWarmStepAllocatesNoFactor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	const m, in, out = 16, 24, 20
	net := capturedLinearNet(6, m, in, out)
	k := NewKFAC(net, 0.1, dist.Local(), nil)
	step := func() { k.Update(); k.Precondition() }
	step()
	aBuf := k.state[0].aBuf
	step()
	if st := k.state[0]; st.aBuf != aBuf || st.aInv != st.aBuf || st.gInv != st.gBuf {
		t.Fatal("the owner's inverse buffers are not kept and broadcast")
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= out*out*8 {
		t.Fatalf("a warmed step allocates %d bytes, a %d×%d factor is %d", least, out, out, out*out*8)
	}
}

// A warmed EKFAC Update+Precondition on one rank allocates no eigenbasis:
// the owner decomposes into the bases it keeps, on pooled workspace.
func TestEKFACWarmStepAllocatesNoEigenbasis(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	const m, in, out = 16, 24, 20
	net := capturedLinearNet(6, m, in, out)
	e := NewEKFAC(net, 0.1, dist.Local(), nil)
	step := func() { e.Update(); e.Precondition() }
	step()
	qa := e.state[0].qa
	step()
	if e.state[0].qa != qa {
		t.Fatal("the owner's eigenbasis is not kept")
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= out*out*8 {
		t.Fatalf("a warmed step allocates %d bytes, a %d×%d eigenbasis is %d", least, out, out, out*out*8)
	}
}

// TestKFACStateBytes: the state size is the length of the encoded
// section, and it grows when an update gives the owner its factors and
// inverses.
func TestKFACStateBytes(t *testing.T) {
	net := capturedLinearNet(5, 8, 4, 3)
	k := NewKFAC(net, 0.1, dist.Local(), nil)
	before := k.StateBytes()
	if want := len(k.AppendState(nil)); before != want {
		t.Fatalf("pre-update StateBytes = %d; the section encodes %d bytes", before, want)
	}
	k.Update()
	after := k.StateBytes()
	if want := len(k.AppendState(nil)); after != want {
		t.Fatalf("post-update StateBytes = %d; the section encodes %d bytes", after, want)
	}
	// Two 5×5 and two 3×3 matrices: the running factors and the inverses.
	if grown := after - before; grown != 2*(25+9)*8 {
		t.Fatalf("an update grew the state by %d bytes; want %d", grown, 2*(25+9)*8)
	}
}

// TestNonOwnerHoldsNoFactors: at P = 2 the rank that does not own a layer
// never folds its running factors, so it holds none after an update and
// its section round-trips without them.
func TestNonOwnerHoldsNoFactors(t *testing.T) {
	cluster := dist.NewCluster(2)
	cluster.Run(func(w *dist.Worker) {
		k := NewKFAC(capturedLinearNet(10, 8, 6, 4), 0.1, w, nil) // owner = rank 0
		k.Update()
		st := k.state[0]
		if owner := w.Rank == 0; (st.aFactor != nil) != owner || (st.gFactor != nil) != owner {
			t.Errorf("rank %d holds factors %v, %v", w.Rank, st.aFactor != nil, st.gFactor != nil)
		}
		if st.aInv == nil {
			t.Errorf("rank %d holds no broadcast inverse", w.Rank)
		}
		back := NewKFAC(capturedLinearNet(10, 8, 6, 4), 0.1, w, nil)
		if err := back.LoadState(k.AppendState(nil)); err != nil {
			t.Errorf("rank %d: %v", w.Rank, err)
		}
	})
}

// TestNonOwnerDropsLoadedFactors: a section holding running factors for
// a layer this rank does not own (written under another placement) loads,
// and the next Update drops them, so the rank neither holds nor re-saves
// them.
func TestNonOwnerDropsLoadedFactors(t *testing.T) {
	src := NewKFAC(capturedLinearNet(10, 8, 6, 4), 0.1, dist.Local(), nil)
	src.Update()
	section := src.AppendState(nil)
	cluster := dist.NewCluster(2)
	cluster.Run(func(w *dist.Worker) {
		k := NewKFAC(capturedLinearNet(10, 8, 6, 4), 0.1, w, nil) // owner = rank 0
		if err := k.LoadState(section); err != nil {
			t.Errorf("rank %d: %v", w.Rank, err)
			return
		}
		k.Update()
		st := k.state[0]
		if owner := w.Rank == 0; (st.aFactor != nil) != owner || (st.gFactor != nil) != owner || st.initialized != owner {
			t.Errorf("rank %d holds factors %v, %v (initialized %v)", w.Rank, st.aFactor != nil, st.gFactor != nil, st.initialized)
		}
		if w.Rank == 1 && len(k.AppendState(nil)) >= len(section) {
			t.Errorf("non-owner re-saves %d bytes; the loaded section had %d", len(k.AppendState(nil)), len(section))
		}
	})
}

// TestFactorsMustFit: a section whose running factors are missing though
// the layer is initialized, or of the wrong shape, does not load, and the
// state is left as it was.
func TestFactorsMustFit(t *testing.T) {
	for name, build := range map[string]func() (precondState, *factors){
		"kfac": func() (precondState, *factors) {
			k := NewKFAC(capturedLinearNet(5, 8, 4, 3), 0.1, dist.Local(), nil)
			return k, &k.state[0].factors
		},
		"ekfac": func() (precondState, *factors) {
			e := NewEKFAC(capturedLinearNet(5, 8, 4, 3), 0.1, dist.Local(), nil)
			return e, &e.state[0].factors
		},
	} {
		for bad, spoil := range map[string]func(f *factors){
			"missing":     func(f *factors) { f.aFactor, f.gFactor = nil, nil },
			"wrong shape": func(f *factors) { f.aFactor = mat.NewDense(2, 2) },
			"one missing": func(f *factors) { f.gFactor = nil },
		} {
			src, f := build()
			src.Update()
			spoil(f)
			dst, _ := build()
			dst.Update()
			before := dst.AppendState(nil)
			if err := dst.LoadState(src.AppendState(nil)); err == nil {
				t.Errorf("%s, %s factors: the section loaded", name, bad)
			}
			if !bytes.Equal(dst.AppendState(nil), before) {
				t.Errorf("%s, %s factors: a refused load changed the state", name, bad)
			}
		}
	}
}

type precondState interface {
	Update()
	AppendState([]byte) []byte
	LoadState([]byte) error
}

// Only a layer's owner keeps its running factors, so a non-owner must hold
// less state than the owner.
func TestOwnerOnlyStoresFactors(t *testing.T) {
	const p = 4
	bytes := make([]int, p)
	cluster := dist.NewCluster(p)
	cluster.Run(func(w *dist.Worker) {
		net := capturedLinearNet(10, 8, 6, 4) // single layer, owner = rank 0
		k := NewKFAC(net, 0.1, w, nil)
		k.Update()
		bytes[w.Rank] = k.StateBytes()
	})
	if bytes[1] >= bytes[0] {
		t.Fatalf("non-owner %d bytes not below owner %d", bytes[1], bytes[0])
	}
}

func TestPiCorrection(t *testing.T) {
	gA, gG := piCorrection(10, 5, 2, 4, 0.04)
	// π² = (10/5)/(2/4) = 4, π = 2 → γA = 2·0.2 = 0.4, γG = 0.2/2 = 0.1.
	if math.Abs(gA-0.4) > 1e-12 || math.Abs(gG-0.1) > 1e-12 {
		t.Fatalf("pi correction = (%g, %g); want (0.4, 0.1)", gA, gG)
	}
	// Product of the split equals the undivided damping.
	if math.Abs(gA*gG-0.04) > 1e-12 {
		t.Fatal("π split should preserve γA·γG = γ")
	}
	// Degenerate traces fall back to the symmetric split.
	gA, gG = piCorrection(0, 5, 2, 4, 0.04)
	if math.Abs(gA-0.2) > 1e-12 || math.Abs(gG-0.2) > 1e-12 {
		t.Fatalf("degenerate fallback = (%g, %g); want (0.2, 0.2)", gA, gG)
	}
}

func TestPiCorrectedKFACTrains(t *testing.T) {
	net := capturedLinearNet(11, 10, 4, 3)
	k := NewKFAC(net, 0.1, dist.Local(), nil)
	k.PiCorrection = true
	k.Update()
	k.Precondition()
	for _, v := range net.KernelLayers()[0].Weight().Grad.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("π-corrected KFAC produced non-finite gradient")
		}
	}
}

// EKFAC distributed must match the single-worker run on identical shards,
// like KFAC (eigendecomposition + broadcast path).
func TestEKFACDistributedMatchesLocal(t *testing.T) {
	const p, m, in, out, damping = 3, 8, 3, 2, 0.2
	ref := capturedLinearNet(13, m, in, out)
	refL := ref.KernelLayers()[0]
	gradFull := refL.Weight().Grad.Clone()
	eRef := NewEKFAC(ref, damping, dist.Local(), nil)
	eRef.Update()
	eRef.Precondition()
	want := refL.Weight().Grad.Clone()

	results := make([]*mat.Dense, p)
	cluster := dist.NewCluster(p)
	cluster.Run(func(w *dist.Worker) {
		net := capturedLinearNet(13, m, in, out)
		l := net.KernelLayers()[0]
		l.Weight().Grad.CopyFrom(gradFull)
		e := NewEKFAC(net, damping, w, nil)
		e.Update()
		e.Precondition()
		results[w.Rank] = l.Weight().Grad.Clone()
	})
	for r := 0; r < p; r++ {
		// Eigenvectors have a sign ambiguity but the full preconditioning
		// map is sign-invariant, so results must agree.
		if d := mat.MaxAbsDiff(results[r], want); d > 1e-8 {
			t.Fatalf("rank %d: distributed EKFAC differs by %g", r, d)
		}
	}
}
