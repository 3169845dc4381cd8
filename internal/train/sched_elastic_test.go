package train

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/sched"
)

// Chaos must compose with the layer-parallel scheduler: an injected worker
// death mid-training, recovered by RunElastic, must reproduce the history
// of an uninterrupted SEQUENTIAL (-sched-workers=1) run exactly — the
// async-collective pipeline is bit-identical to the legacy path even
// across a checkpoint-restore cycle.
func TestElasticRecoveryWithParallelScheduler(t *testing.T) {
	tr, te := vectorTask(11)
	cfg := baseCfg()
	cfg.Epochs = 6
	cfg.BatchSize = 15
	hylo := precondFactories()["HyLo"]

	prev := sched.Workers()
	sched.SetWorkers(1)
	ref := RunDistributed(2, cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)

	sched.SetWorkers(4)
	defer sched.SetWorkers(prev)
	res, err := Drive(bg, inProc(2),
		Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0}, ElasticConfig{
			Dir:    t.TempDir(),
			Every:  1,
			Faults: &dist.FaultPlan{Seed: 1, PanicRank: 1, PanicStep: 19},
		})
	if err != nil {
		t.Fatalf("RunElastic failed to recover under the parallel scheduler: %v", err)
	}
	statsClose(t, ref.Stats, res.Stats, 0)
	if math.Abs(ref.FinalLoss-res.FinalLoss) != 0 {
		t.Fatalf("final loss: sequential %.17g vs parallel recovered %.17g", ref.FinalLoss, res.FinalLoss)
	}
}
