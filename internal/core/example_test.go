package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
)

// ExampleNewHyLo shows the minimal preconditioning loop: capture per-sample
// factors with one forward/backward pass, refresh HyLo's low-rank state,
// and transform the gradient in place.
func ExampleNewHyLo() {
	rng := mat.NewRNG(1)
	net := nn.NewNetwork(nn.Vec(8), rng, nn.NewLinear(4))
	net.SetCapture(true)

	x := mat.RandN(rng, 16, 8, 1)
	out := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(out, nn.Target{
		Labels: []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}})
	net.ZeroGrad()
	net.Backward(g)

	h := core.NewHyLo(net, 0.1, 0.25, dist.Local(), nil, mat.NewRNG(2))
	h.OnEpochStart(0, false) // first epoch: the heuristic picks KID
	h.Update()
	h.Precondition()

	fmt.Println("mode:", h.Mode())
	fmt.Println("grad finite:", net.KernelLayers()[0].Weight().Grad.FrobNorm() < 1e6)
	// Output:
	// mode: KID
	// grad finite: true
}

// ExampleKIDFactors demonstrates Algorithm 2 directly: reducing per-sample
// factors to rank-r KID factors.
func ExampleKIDFactors() {
	rng := mat.NewRNG(3)
	a := mat.RandN(rng, 12, 5, 1) // per-sample inputs
	g := mat.RandN(rng, 12, 4, 1) // per-sample output gradients
	as, gs, y, err := core.KIDFactors(a, g, 3, 0.1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("A^s: %dx%d  G^s: %dx%d  Y: %dx%d\n",
		as.Rows(), as.Cols(), gs.Rows(), gs.Cols(), y.Rows(), y.Cols())
	// Output:
	// A^s: 3x5  G^s: 3x4  Y: 3x3
}

// ExampleGradientSwitch shows the Eq. (10) decision rule.
func ExampleGradientSwitch() {
	p := core.GradientSwitch{Eta: 0.25}
	rng := mat.NewRNG(4)
	fmt.Println(p.Choose(5, false, 0.50, rng)) // big gradient change
	fmt.Println(p.Choose(6, false, 0.05, rng)) // stable
	fmt.Println(p.Choose(7, true, 0.05, rng))  // LR decay forces KID
	// Output:
	// KID
	// KIS
	// KID
}
