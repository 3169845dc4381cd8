package bench

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

// captureBatch runs one captured forward/backward pass of a classification
// batch through the network and returns the kernel layers.
func captureBatch(net *nn.Network, ds *data.Dataset, idx []int) []nn.KernelLayer {
	net.SetCapture(true)
	x, tgt := ds.Batch(idx)
	out := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(out, tgt)
	net.ZeroGrad()
	net.Backward(g)
	return net.KernelLayers()
}

// Fig10KernelRank reproduces Fig. 10: the numerical rank (eigenvalues
// covering 90% of the spectrum sum) of each layer's kernel matrix across
// global batch sizes; the paper's claim is that rank/batch stays small.
func Fig10KernelRank(cfg RunConfig) *Table {
	t := &Table{ID: "fig10", Title: "Kernel-matrix numerical rank vs global batch",
		Headers: []string{"model", "batch", "min", "median", "max", "median/batch"}}
	batches := []int{64, 128, 256, 512}
	classes, per := 8, 80
	if cfg.Quick {
		batches = []int{32, 64}
		classes, per = 4, 24
	}
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+20), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	cases := []struct {
		name  string
		build func(rng *mat.RNG) *nn.Network
	}{
		{"ResNet(sub)", func(rng *mat.RNG) *nn.Network {
			return models.ResNetCIFAR(shape, 1, 4, classes, rng)
		}},
		{"3C1F", func(rng *mat.RNG) *nn.Network {
			return models.ThreeC1F(shape, 4, classes, rng)
		}},
	}
	for _, cse := range cases {
		net := cse.build(mat.NewRNG(cfg.Seed + 21))
		for _, b := range batches {
			if b > ds.Len() {
				break
			}
			idx := make([]int, b)
			for i := range idx {
				idx[i] = i
			}
			layers := captureBatch(net, ds, idx)
			var ranks []int
			for _, l := range layers {
				a, g := l.Capture()
				if a == nil {
					continue
				}
				k := mat.KernelMatrix(a, g)
				ranks = append(ranks, mat.NumericalRank(k, 0.9))
			}
			sort.Ints(ranks)
			med := ranks[len(ranks)/2]
			t.AddRow(cse.name, fmt.Sprint(b),
				fmt.Sprint(ranks[0]), fmt.Sprint(med),
				fmt.Sprint(ranks[len(ranks)-1]),
				fmt.Sprintf("%.0f%%", 100*float64(med)/float64(b)))
		}
	}
	t.AddNote("paper: median rank is 8.5-22%% of the global batch — the kernel matrix is low-rank at scale")
	return t
}

// Fig11GradNorms reproduces Fig. 11: per-layer gradient norms across
// epochs of end-to-end training, the signal driving the switching
// heuristic.
func Fig11GradNorms(cfg RunConfig) *Table {
	t := &Table{ID: "fig11", Title: "Per-layer gradient norms across epochs",
		Headers: []string{"epoch", "layer", "||grad||", "||accum grad||"}}
	epochs, classes, per := 8, 6, 40
	if cfg.Quick {
		epochs, classes, per = 4, 3, 20
	}
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+30), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	net := models.ResNetCIFAR(shape, 1, 4, classes, mat.NewRNG(cfg.Seed+31))
	params := net.Params()
	sgd := opt.NewSGD(params, 0.03, 0.9, 0)
	sched := opt.LRSchedule{Base: 0.03, DecayAt: []int{epochs / 2}, Gamma: 0.1}
	it := data.NewBatchIterator(mat.NewRNG(cfg.Seed+32), ds.Len(), 32)
	kls := net.KernelLayers()
	probe := []int{0, len(kls) / 2, len(kls) - 1}
	for epoch := 0; epoch < epochs; epoch++ {
		sgd.SetLR(sched.At(epoch))
		accum := make([]float64, len(probe))
		var last []float64
		for b := 0; b < it.BatchesPerEpoch(); b++ {
			x, tgt := ds.Batch(it.Next())
			net.ZeroGrad()
			out := net.Forward(x, true)
			_, g := nn.SoftmaxCrossEntropy{}.Forward(out, tgt)
			net.Backward(g)
			last = make([]float64, len(probe))
			for k, li := range probe {
				n := kls[li].Weight().Grad.FrobNorm()
				last[k] = n
				accum[k] += n
			}
			sgd.Step()
		}
		for k, li := range probe {
			t.AddRow(fmt.Sprint(epoch), kls[li].Name(), fmtF(last[k]), fmtF(accum[k]))
		}
	}
	t.AddNote("paper: norms change rapidly in early epochs and after LR decays — exactly the epochs the heuristic marks critical")
	return t
}

// Fig12GradError reproduces Fig. 12: the normalized gradient error
// ε = ‖ĝ−g‖/‖g‖ of KID vs KIS at r = 10%% of the batch, measured on real
// captures across training.
func Fig12GradError(cfg RunConfig) *Table {
	t := &Table{ID: "fig12", Title: "Normalized gradient error of KID and KIS",
		Headers: []string{"epoch", "layer", "KID error", "KIS error", "KID/KIS"}}
	epochs, classes, per, batch := 6, 6, 40, 64
	if cfg.Quick {
		epochs, classes, per, batch = 3, 3, 20, 32
	}
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+40), data.ClassSpec{
		Classes: classes, PerClass: per, Shape: shape, Noise: 0.3})
	net := models.ResNetCIFAR(shape, 1, 4, classes, mat.NewRNG(cfg.Seed+41))
	sgd := opt.NewSGD(net.Params(), 0.03, 0.9, 0)
	it := data.NewBatchIterator(mat.NewRNG(cfg.Seed+42), ds.Len(), batch)
	// At the paper's scale r = 10% of a 512-4096 global batch comfortably
	// covers the kernel's numerical rank; at toy batch sizes that fraction
	// underresolves it, so the probe uses r = 25% to stay in the same
	// regime (r ≈ numerical rank). Documented in EXPERIMENTS.md.
	r := batch / 4
	if r < 2 {
		r = 2
	}
	errRNG := mat.NewRNG(cfg.Seed + 43)
	for epoch := 0; epoch < epochs; epoch++ {
		for b := 0; b < it.BatchesPerEpoch(); b++ {
			kls := captureBatch(net, ds, it.Next())
			if b == 0 { // probe once per epoch, on the two deepest layers
				for _, li := range []int{len(kls) - 2, len(kls) - 1} {
					a, g := kls[li].Capture()
					grad := kls[li].Weight().Grad.Data()
					kid := core.GradError(a, g, grad, 0.1, r, core.ModeKID, errRNG)
					// KIS is stochastic; average over draws.
					var kis float64
					const draws = 3
					for d := 0; d < draws; d++ {
						kis += core.GradError(a, g, grad, 0.1, r, core.ModeKIS, errRNG)
					}
					kis /= draws
					ratio := "-"
					if kis > 0 {
						ratio = fmtF(kid / kis)
					}
					t.AddRow(fmt.Sprint(epoch), kls[li].Name(), fmtF(kid), fmtF(kis), ratio)
				}
			}
			sgd.Step()
		}
	}
	t.AddNote("paper: KID error is about an order of magnitude below KIS")
	return t
}

// Table2Models reproduces Table II as realized by this reproduction: the
// substitute model/dataset inventory beside the paper's originals.
func Table2Models(cfg RunConfig) *Table {
	t := &Table{ID: "table2", Title: "Models and datasets (paper -> substitute)",
		Headers: []string{"paper model", "paper dataset", "substitute model", "substitute dataset", "workers"}}
	t.AddRow("ResNet-50", "ImageNet-1k", "ResNetCIFAR(n,w scaled)", "SynthImages 3x16x16", "8 (sim)")
	t.AddRow("U-Net", "LGG Segmentation", "MiniUNet (3-level skips)", "SynthSegmentation", "4 (sim)")
	t.AddRow("ResNet-32", "CIFAR-10", "ResNetCIFAR(n=1..5,w)", "SynthImages 3x12x12", "4 (sim)")
	t.AddRow("DenseNet", "CIFAR-100", "DenseNetLite", "SynthImages 3x12x12", "1")
	t.AddRow("3C1F", "Fashion-MNIST", "ThreeC1F (exact arch)", "SynthImages 1x12x12", "1")
	t.AddNote("full-size layer inventories of all five paper models feed the cost-model experiments")
	return t
}

// Table4Memory reproduces Table IV: optimizer-state memory for HyLo,
// KAISA, ADAM, and SGD. The analytic section evaluates the storage
// formulas of Table I on the full-size models at the paper's batch sizes
// (fp32); the measured section reports StateBytes from real substitute
// runs.
func Table4Memory(cfg RunConfig) *Table {
	t := &Table{ID: "table4", Title: "Memory overhead (analytic, full-size models, fp32)",
		Headers: []string{"model", "HyLo", "KAISA", "ADAM", "SGD"}}
	const fp32 = 4
	mb := func(bytes float64) string { return fmt.Sprintf("%.1f MB", bytes/(1<<20)) }
	cases := []struct {
		md    models.ModelDesc
		mGlob int
	}{
		{models.ResNet50Desc(), 80 * 64},
		{models.ResNet32Desc(), 128 * 32},
		{models.UNetDesc(), 16 * 4},
	}
	for _, c := range cases {
		r := c.mGlob / 10
		var hylo, kaisa float64
		for _, l := range c.md.Layers {
			hylo += float64(r*(l.DIn+l.DOut) + r*r)
			kaisa += float64(2 * (l.DIn*l.DIn + l.DOut*l.DOut))
		}
		params := float64(c.md.Params())
		hylo = (hylo + params) * fp32 // factors + gradient copy
		kaisa = (kaisa + params) * fp32
		adam := 2 * params * fp32
		sgd := params * fp32
		t.AddRow(c.md.Name, mb(hylo), mb(kaisa), mb(adam), mb(sgd))
	}
	t.AddNote("paper: HyLo uses 2x less memory than KAISA on ResNet-50 and 20x less on U-Net")

	// Measured state bytes on the substitutes.
	w := resnet32Workload(cfg)
	for _, m := range cfg.methods([]string{"HyLo", "KFAC", "ADAM", "SGD"}) {
		res := runMethod(w, m)
		t.AddNote("measured %s on %s: %.2f MB state", res.Method, w.name,
			float64(res.StateBytes)/(1<<20))
	}
	return t
}
