package sngd

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
)

// buildCapturedNet creates a single-linear-layer net, runs one captured
// forward/backward on a batch, and returns it.
func buildCapturedNet(seed uint64, m, in, out int) *nn.Network {
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

// TestSNGDMatchesDenseInverse verifies the SMW path against a dense
// (F + αI)⁻¹ g computed by materializing U and solving directly.
func TestSNGDMatchesDenseInverse(t *testing.T) {
	const m, in, out, alpha = 12, 4, 3, 0.37
	net := buildCapturedNet(1, m, in, out)
	l := net.KernelLayers()[0]
	a, g := l.Capture()
	grad := l.Weight().Grad.Clone()

	s := New(net, alpha, dist.Local(), nil)
	s.Update()
	s.Precondition()
	got := l.Weight().Grad

	// Dense reference: F = ÛᵀÛ with Û = (A ⊙ G)/√m; solve (F+αI)x = grad.
	u := mat.KhatriRao(a, g).Scale(1 / math.Sqrt(float64(m)))
	f := mat.GramT(u).AddDiag(alpha)
	x, err := mat.Solve(f, mat.NewDenseData((in+1)*out, 1, grad.Data()))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < (in+1)*out; j++ {
		want := x.At(j, 0)
		have := got.Data()[j]
		if math.Abs(want-have) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("element %d: SMW %g vs dense %g", j, have, want)
		}
	}
}

// TestSNGDDistributedMatchesLocal: P workers each capturing a shard of the
// batch must produce the same preconditioned gradient as one worker with
// the full batch (the gather step reconstructs the global factors).
func TestSNGDDistributedMatchesLocal(t *testing.T) {
	const p, mPer, in, out, alpha = 4, 5, 3, 2, 0.25
	m := p * mPer
	// Build the reference: single net, full batch.
	refNet := buildCapturedNet(7, m, in, out)
	refLayer := refNet.KernelLayers()[0]
	aFull, gFull := refLayer.Capture()
	gradFull := refLayer.Weight().Grad.Clone()

	sRef := New(refNet, alpha, dist.Local(), nil)
	sRef.Update()
	sRef.Precondition()
	want := refLayer.Weight().Grad.Clone()

	// Distributed: each worker gets shard rows and the same global grad.
	results := make([]*mat.Dense, p)
	cluster := dist.NewCluster(p)
	cluster.Run(func(w *dist.Worker) {
		rng := mat.NewRNG(99)
		net := nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
		l := net.KernelLayers()[0]
		// Inject the shard captures and global gradient directly.
		lin := l.(*nn.Linear)
		lin.SetCapture(true)
		lo := w.Rank * mPer
		shardA := aFull.SliceRows(lo, lo+mPer)
		shardG := gFull.SliceRows(lo, lo+mPer)
		injectCapture(lin, shardA, shardG)
		l.Weight().Grad.CopyFrom(gradFull)

		s := New(net, alpha, w, nil)
		s.Update()
		s.Precondition()
		results[w.Rank] = l.Weight().Grad.Clone()
	})
	for r := 0; r < p; r++ {
		if d := mat.MaxAbsDiff(results[r], want); d > 1e-8 {
			t.Fatalf("rank %d: distributed result differs from local by %g", r, d)
		}
	}
}

// injectCapture runs a synthetic forward/backward through the linear layer
// so its capture equals (a, g) exactly. The linear layer captures
// A = [x, 1] and G = m·signal, so we strip the bias column and divide by m.
func injectCapture(lin *nn.Linear, a, g *mat.Dense) {
	m := a.Rows()
	x := mat.NewDense(m, lin.In)
	for i := 0; i < m; i++ {
		copy(x.Row(i), a.Row(i)[:lin.In])
	}
	lin.Forward(x, true)
	signal := g.Clone().Scale(1 / float64(m))
	lin.Backward(signal)
}

func TestSNGDStateBytesGrowsWithBatch(t *testing.T) {
	netSmall := buildCapturedNet(3, 8, 4, 3)
	sSmall := New(netSmall, 0.3, dist.Local(), nil)
	sSmall.Update()
	netBig := buildCapturedNet(3, 32, 4, 3)
	sBig := New(netBig, 0.3, dist.Local(), nil)
	sBig.Update()
	if sBig.StateBytes() <= sSmall.StateBytes() {
		t.Fatalf("SNGD state should grow with batch: %d vs %d",
			sBig.StateBytes(), sSmall.StateBytes())
	}
}

func TestSNGDPreconditionIsNoOpBeforeUpdate(t *testing.T) {
	net := buildCapturedNet(4, 8, 4, 3)
	l := net.KernelLayers()[0]
	before := l.Weight().Grad.Clone()
	s := New(net, 0.3, dist.Local(), nil)
	s.Precondition() // no Update yet
	if d := mat.MaxAbsDiff(before, l.Weight().Grad); d != 0 {
		t.Fatalf("Precondition before Update changed grads by %g", d)
	}
}
