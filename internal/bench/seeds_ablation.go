package bench

import (
	"fmt"
	"math"
)

// AblationSeeds measures run-to-run robustness: the ResNet-32 substitute
// trained with HyLo and with SGD across several seeds, reporting
// mean ± std of the best accuracy. Reproduction claims should never rest
// on a single lucky seed.
func AblationSeeds(cfg RunConfig) *Table {
	t := &Table{ID: "abl-seeds", Title: "Ablation: seed robustness (best accuracy over seeds)",
		Headers: []string{"method", "seeds", "mean", "std", "min", "max"}}
	seeds := []uint64{1, 2, 3, 4, 5}
	if cfg.Quick {
		seeds = []uint64{1, 2, 3}
	}
	for _, name := range []string{"HyLo", "SGD"} {
		m := cfg.methods([]string{name})[0]
		var accs []float64
		for _, seed := range seeds {
			c := cfg
			c.Seed = seed
			w := resnet32Workload(c)
			res := runMethod(w, m)
			accs = append(accs, res.Best)
		}
		var mean float64
		minV, maxV := accs[0], accs[0]
		for _, a := range accs {
			mean += a
			if a < minV {
				minV = a
			}
			if a > maxV {
				maxV = a
			}
		}
		mean /= float64(len(accs))
		var varSum float64
		for _, a := range accs {
			varSum += float64((a - mean) * (a - mean))
		}
		std := math.Sqrt(varSum / float64(len(accs)))
		t.AddRow(name, fmt.Sprint(len(seeds)), fmtF(mean), fmtF(std), fmtF(minV), fmtF(maxV))
	}
	return t
}
