package bench

import "repro/internal/train"

// AblationDamping compares fixed-α HyLo (the paper's setup, with damping
// hand-tuned per model) against the Levenberg-Marquardt adaptive schedule
// this library adds, across deliberately mis-tuned starting values — the
// adapter's job is to recover from a bad initial α.
func AblationDamping(cfg RunConfig) *Table {
	t := &Table{ID: "abl-damping", Title: "Ablation: fixed vs Levenberg-Marquardt adaptive damping",
		Headers: []string{"initial alpha", "fixed best acc", "adaptive best acc", "fixed loss", "adaptive loss"}}
	w := resnet32Workload(cfg)
	for _, alpha := range []float64{0.001, 0.1, 10} {
		run := func(adapt bool) train.Result {
			c := w.cfg
			c.Damping = alpha
			c.AdaptDamping = adapt
			o := cfg.opts()
			o.Damping = alpha
			return w.run(c, precondFactory("hylo", o), 0)
		}
		fixed := run(false)
		adaptive := run(true)
		t.AddRow(fmtF(alpha),
			fmtF(fixed.Best), fmtF(adaptive.Best),
			fmtF(fixed.FinalLoss), fmtF(adaptive.FinalLoss))
	}
	t.AddNote("the LM schedule shrinks alpha while the loss improves and grows it on regressions, reducing sensitivity to the initial value")
	return t
}
