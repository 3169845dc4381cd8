package bench

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/precond"
	"repro/internal/train"
)

// hyloFactory builds the gradient-switching HyLo factory at the given rank
// fraction and threshold.
func hyloFactory(cfg RunConfig, rankFrac, eta float64) train.PrecondFactory {
	o := cfg.opts()
	o.RankFrac, o.Eta = rankFrac, eta
	return precondFactory("hylo", o)
}

// AblationEta sweeps the switching threshold η of Eq. (10): smaller η
// marks more epochs critical (more KID), trading time for accuracy.
func AblationEta(cfg RunConfig) *Table {
	t := &Table{ID: "abl-eta", Title: "Ablation: switching threshold η",
		Headers: []string{"eta", "best acc", "total time", "KID epochs", "modes"}}
	w := resnet32Workload(cfg)
	for _, eta := range []float64{0.05, 0.25, 1.0, 1e9} {
		res := w.run(w.cfg, hyloFactory(cfg, 0.1, eta), w.target)
		kid := 0
		modes := ""
		for _, m := range res.EpochModes {
			if m == "KID" {
				kid++
				modes += "D"
			} else {
				modes += "S"
			}
		}
		t.AddRow(fmtF(eta), fmtF(res.Best),
			fmtDur(res.Stats[len(res.Stats)-1].Elapsed),
			fmt.Sprintf("%d/%d", kid, len(res.EpochModes)), modes)
	}
	t.AddNote("η→∞ degenerates to KIS-everywhere (after the LR-decay epochs); η→0 to KID-everywhere")
	return t
}

// AblationRank sweeps HyLo's rank fraction: larger r tracks the exact
// SNGD update more closely at higher cost (the Fig. 8 knob, measured on
// real training instead of the cost model).
func AblationRank(cfg RunConfig) *Table {
	t := &Table{ID: "abl-rank", Title: "Ablation: rank fraction r/|batch|",
		Headers: []string{"rank frac", "best acc", "final loss", "total time"}}
	w := resnet32Workload(cfg)
	for _, rf := range []float64{0.05, 0.1, 0.25, 0.5} {
		res := w.run(w.cfg, hyloFactory(cfg, rf, 0.25), w.target)
		t.AddRow(fmtF(rf), fmtF(res.Best), fmtF(res.FinalLoss),
			fmtDur(res.Stats[len(res.Stats)-1].Elapsed))
	}
	return t
}

// AblationFreq sweeps the second-order refresh period.
func AblationFreq(cfg RunConfig) *Table {
	t := &Table{ID: "abl-freq", Title: "Ablation: second-order update frequency",
		Headers: []string{"freq (iters)", "best acc", "total time"}}
	w := resnet32Workload(cfg)
	for _, freq := range []int{1, 5, 20} {
		w2 := w
		w2.cfg.UpdateFreq = freq
		res := w2.run(w2.cfg, hyloFactory(cfg, 0.1, 0.25), w2.target)
		t.AddRow(fmt.Sprint(freq), fmtF(res.Best),
			fmtDur(res.Stats[len(res.Stats)-1].Elapsed))
	}
	t.AddNote("the paper scales freq inversely with #GPUs to keep updates per sample constant")
	return t
}

// AblationRandomizedID compares the deterministic pivoted-QR KID against
// the two sketched randomized IDs of reference [33] — dense Gaussian and
// SRHT — on both training quality and the measured factorization error.
func AblationRandomizedID(cfg RunConfig) *Table {
	t := &Table{ID: "abl-randid", Title: "Ablation: deterministic vs randomized KID",
		Headers: []string{"variant", "best acc", "total time", "mean grad err"}}
	w := resnet32Workload(cfg)
	for _, v := range []struct {
		name   string
		sketch core.Sketch
	}{
		{"pivoted-QR ID", core.SketchOff},
		{"gaussian sketch", core.SketchGauss},
		{"SRHT sketch", core.SketchSRHT},
	} {
		// Force KID-only so the ablation isolates the factorization.
		o := cfg.opts()
		o.KidSketch = v.sketch
		res := w.run(w.cfg, precondFactory("hylo-kid", o), w.target)
		gerr := measureKIDError(cfg, v.sketch)
		t.AddRow(v.name, fmtF(res.Best),
			fmtDur(res.Stats[len(res.Stats)-1].Elapsed), fmtF(gerr))
	}
	return t
}

// measureKIDError is abl-randid's error column: the normalized gradient
// error of production HyLo-KID with the given sketch on a fresh capture's
// last layer, at r = 25% of the batch.
func measureKIDError(cfg RunConfig, sketch core.Sketch) float64 {
	classes := 4
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+50), data.ClassSpec{
		Classes: classes, PerClass: 16, Shape: shape, Noise: 0.3})
	net := models.ThreeC1F(shape, 4, classes, mat.NewRNG(cfg.Seed+51))
	l, last := captureHead(net, ds, 48)
	o := cfg.opts()
	o.Damping, o.RankFrac, o.KidSketch = 0.1, 0.25, sketch
	return relErr(probe(net, "hylo-kid", o, mat.NewRNG(cfg.Seed+52))[last], exactGrad(l, 0.1))
}

// AblationKISRescale compares importance sampling with and without the
// Drineas-Kannan-Mahoney 1/√(r·q) rescaling (the paper's pseudocode omits
// it; this library applies it by default for unbiasedness).
func AblationKISRescale(cfg RunConfig) *Table {
	t := &Table{ID: "abl-rescale", Title: "Ablation: KIS importance rescaling",
		Headers: []string{"variant", "mean grad err", "trials"}}
	classes := 4
	shape := nn.Shape{C: 3, H: 12, W: 12}
	ds := data.SynthImages(mat.NewRNG(cfg.Seed+60), data.ClassSpec{
		Classes: classes, PerClass: 20, Shape: shape, Noise: 0.3})
	net := models.ThreeC1F(shape, 4, classes, mat.NewRNG(cfg.Seed+61))
	l, _ := captureHead(net, ds, 64)
	a, g := l.Capture()
	grad := l.Weight().Grad.Data()
	exact := exactGrad(l, 0.1)
	if exact == nil {
		t.AddNote("exact SNGD solve failed")
		return t
	}
	scale := 1 / math.Pow(float64(a.Rows()), 0.25)
	an := a.Clone().Scale(scale)
	gn := g.Clone().Scale(scale)
	const trials = 10
	for _, v := range []struct {
		name    string
		rescale bool
	}{{"rescaled (DKM)", true}, {"plain selection", false}} {
		var sum float64
		for trial := 0; trial < trials; trial++ {
			as, gs := core.KISFactors(mat.NewRNG(cfg.Seed+62+uint64(trial)), an, gn, 16, v.rescale)
			k := mat.KernelMatrix(as, gs).AddDiag(0.1)
			approx := slices.Clone(grad)
			(&precond.Kernel{As: as, Gs: gs, M: mat.InvSPDDamped(k, 0)}).Apply(approx, 0.1)
			sum += relErr(approx, exact)
		}
		t.AddRow(v.name, fmtF(sum/trials), fmt.Sprint(trials))
	}
	return t
}
