package bench

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/models"
)

// AblationStraggler quantifies the sensitivity of synchronous HyLo and
// KAISA steps to heterogeneous worker speeds: per-step efficiency under
// half-normal slowdown jitter. Compute-heavy methods (KAISA) lose more to
// stragglers than communication-bound ones — a practical deployment
// consideration the paper's homogeneous clusters did not face.
func AblationStraggler(cfg RunConfig) *Table {
	t := &Table{ID: "abl-straggler", Title: "Ablation: straggler sensitivity (step efficiency)",
		Headers: []string{"sigma", "P", "max slowdown", "KAISA eff", "HyLo eff", "SGD eff"}}
	md := models.ResNet50Desc()
	const m = 80
	for _, sigma := range []float64{0, 0.1, 0.3} {
		for _, p := range []int{8, 64} {
			cm := dist.V100Cluster(p)
			rng := mat.NewRNG(cfg.Seed + uint64(p) + uint64(sigma*100))
			sm := dist.NewStragglerModel(cm, sigma, rng)

			kaisa := KFACSchedule(md, cm, m)
			kid := HyLoKIDSchedule(md, cm, m, 0.1)
			kis := HyLoKISSchedule(md, cm, m, 0.1)
			hyloComp := mix(kid.Computation(), kis.Computation())
			hyloComm := mix(kid.Communication(), kis.Communication())
			fb := ForwardBackward(md, cm, m)
			ar := GradAllReduce(md, cm)

			t.AddRow(fmtF(sigma), fmt.Sprint(p), fmtF(sm.MaxSlowdown()),
				fmtF(sm.Efficiency(kaisa.Computation()+fb, kaisa.Communication()+ar)),
				fmtF(sm.Efficiency(hyloComp+fb, hyloComm+ar)),
				fmtF(sm.Efficiency(fb, ar)))
		}
	}
	t.AddNote("efficiency = ideal/straggled step time; compute-dominant steps degrade with the slowest worker")
	return t
}
