package kbfgs

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

func linearNet(seed uint64, in, out int) *nn.Network {
	rng := mat.NewRNG(seed)
	return nn.NewNetwork(nn.Vec(in), rng, nn.NewLinear(out))
}

func TestNoHistoryIsIdentity(t *testing.T) {
	net := linearNet(1, 4, 3)
	l := net.KernelLayers()[0]
	l.Weight().Grad.Fill(1)
	before := l.Weight().Grad.Clone()
	k := NewKBFGSL(net, 0.01, 10)
	k.Precondition()
	if d := mat.MaxAbsDiff(before, l.Weight().Grad); d != 0 {
		t.Fatal("Precondition with no history must be the identity")
	}
}

// Both phases go through the skeleton's recorder, one span per layer: a
// curvature_pairs span for every layer on each Update and a
// two_loop_recursion span for every layer holding a pair, each labelled
// with the optimizer and the layer.
func TestPhaseSpansPerLayer(t *testing.T) {
	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	}()
	rng := mat.NewRNG(3)
	net := nn.NewNetwork(nn.Vec(4), rng, nn.NewLinear(5), nn.NewReLU(), nn.NewLinear(3))
	layers := net.KernelLayers()
	k := NewKBFGSL(net, 0.01, 4)
	for step := 0; step < 2; step++ {
		// Gradient = weights, so the second harvest's pair has sᵀy > 0.
		for _, l := range layers {
			w, g := l.Weight().W.Data(), l.Weight().Grad.Data()
			for j := range w {
				w[j] += 0.1 * rng.Norm()
				g[j] = w[j]
			}
		}
		k.Update()
	}
	k.Precondition()
	spans := map[string]int{}
	for _, e := range telemetry.Default().Trace.Events() {
		if e.Name != "curvature_pairs" && e.Name != "two_loop_recursion" {
			continue
		}
		labels := map[string]string{}
		for _, l := range e.Labels {
			labels[l.Key] = l.Value
		}
		if labels["optimizer"] != "kbfgs" || labels["layer"] == "" {
			t.Fatalf("span %q has labels %v; want optimizer=kbfgs and a layer", e.Name, e.Labels)
		}
		spans[e.Name+"/"+labels["layer"]]++
	}
	for i := range layers {
		for phase, want := range map[string]int{"curvature_pairs": 2, "two_loop_recursion": 1} {
			if got := spans[fmt.Sprintf("%s/%d", phase, i)]; got != want {
				t.Errorf("layer %d: %d %s spans; want %d", i, got, phase, want)
			}
		}
	}
}

func TestHistoryWindowBounded(t *testing.T) {
	net := linearNet(2, 3, 2)
	l := net.KernelLayers()[0]
	k := NewKBFGSL(net, 0.01, 3)
	rng := mat.NewRNG(7)
	for i := 0; i < 10; i++ {
		// Move the weights and gradients to generate pairs.
		for j := range l.Weight().W.Data() {
			l.Weight().W.Data()[j] += rng.Norm() * 0.1
			l.Weight().Grad.Data()[j] = rng.Norm()
		}
		k.Update()
	}
	if got := len(k.state[0].s); got > 3 {
		t.Fatalf("history = %d pairs; want ≤ 3", got)
	}
	if got := len(k.state[0].s); got == 0 {
		t.Fatal("no pairs collected after 10 updates")
	}
}

// On a fixed quadratic f(w) = ½wᵀHw, BFGS preconditioning must approach
// Newton: the preconditioned gradient converges towards H⁻¹g, making
// steepest descent converge dramatically faster.
func TestBFGSAcceleratesQuadratic(t *testing.T) {
	// Ill-conditioned diagonal Hessian (κ = 1000): plain GD crawls on the
	// flat directions while the BFGS inverse-Hessian estimate equalizes
	// them.
	const n = 6
	h := mat.NewDense(n, n)
	eigs := []float64{0.01, 0.05, 0.2, 1, 4, 10}
	for i, v := range eigs {
		h.Set(i, i, v)
	}
	solve := func(useBFGS bool, iters int) float64 {
		net := linearNet(4, n-1, 1) // (n-1+1)×1 = n params
		l := net.KernelLayers()[0]
		w := l.Weight().W.Data()
		for j := range w {
			w[j] = 1 // start away from optimum (0)
		}
		k := NewKBFGSL(net, 1e-6, 20)
		lr := 0.15 // stable for both: lr·λmax = 1.5 < 2
		for i := 0; i < iters; i++ {
			g := mat.MulVec(h, w)
			copy(l.Weight().Grad.Data(), g)
			if useBFGS {
				k.Update()
				k.Precondition()
			}
			pg := l.Weight().Grad.Data()
			for j := range w {
				w[j] -= lr * pg[j]
			}
		}
		return mat.Norm2(w)
	}
	plain := solve(false, 120)
	bfgs := solve(true, 120)
	if bfgs >= plain {
		t.Fatalf("BFGS final ‖w‖ = %g not below plain GD %g", bfgs, plain)
	}
}

func TestSkipsIndefinitePairs(t *testing.T) {
	net := linearNet(4, 3, 2)
	l := net.KernelLayers()[0]
	k := NewKBFGSL(net, 0, 5) // no damping: curvature can go negative
	// First snapshot.
	l.Weight().Grad.Fill(1)
	k.Update()
	// Move weights up but gradient down sharply: sᵀy < 0.
	for j := range l.Weight().W.Data() {
		l.Weight().W.Data()[j] += 1
	}
	l.Weight().Grad.Fill(-5)
	k.Update()
	if len(k.state[0].s) != 0 {
		t.Fatalf("indefinite pair accepted: %d pairs", len(k.state[0].s))
	}
}

func TestPreconditionFinite(t *testing.T) {
	net := linearNet(5, 6, 4)
	l := net.KernelLayers()[0]
	k := NewKBFGSL(net, 0.01, 8)
	rng := mat.NewRNG(9)
	for i := 0; i < 5; i++ {
		for j := range l.Weight().W.Data() {
			l.Weight().W.Data()[j] += 0.05 * rng.Norm()
			l.Weight().Grad.Data()[j] = rng.Norm()
		}
		k.Update()
		k.Precondition()
		for _, v := range l.Weight().Grad.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite preconditioned gradient")
			}
		}
	}
}

func TestStateBytesGrowsWithHistory(t *testing.T) {
	net := linearNet(6, 4, 3)
	l := net.KernelLayers()[0]
	k := NewKBFGSL(net, 0.01, 10)
	rng := mat.NewRNG(11)
	sizes := []int{}
	for i := 0; i < 4; i++ {
		for j := range l.Weight().W.Data() {
			l.Weight().W.Data()[j] += 0.1 * rng.Norm()
			l.Weight().Grad.Data()[j] = rng.Norm()
		}
		k.Update()
		sizes = append(sizes, k.StateBytes())
	}
	if sizes[3] <= sizes[1] {
		t.Fatalf("state bytes should grow while history fills: %v", sizes)
	}
}
