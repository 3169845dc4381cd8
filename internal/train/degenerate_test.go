package train

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// Chaos acceptance for the numerical-health subsystem: with EVERY factor
// gather replaced by a duplicated-row (rank-1) payload, distributed HyLo
// training must complete without panicking — the degradation ladder absorbs
// the singular kernels — and the epoch losses must stay finite.
func TestElasticSurvivesDegenerateGathers(t *testing.T) {
	for _, kind := range []string{"dup", "zero", "huge"} {
		t.Run(kind, func(t *testing.T) {
			numerics.Reset()
			defer numerics.Reset()
			prev := telemetry.Default()
			telemetry.SetDefault(telemetry.New())
			telemetry.SetEnabled(true)
			defer func() {
				telemetry.SetEnabled(false)
				telemetry.SetDefault(prev)
			}()

			tr, te := vectorTask(19)
			cfg := baseCfg()
			cfg.Epochs = 2
			cfg.BatchSize = 15
			cfg.UpdateFreq = 1 // every step factorizes: maximal ladder exposure
			// Near-zero damping: with the injected rank-1 (or overflowed)
			// kernels the inner systems are numerically singular, so the
			// solves must actually lean on the retry/ladder machinery
			// instead of being rescued by a healthy α.
			hylo := func(net *nn.Network, comm dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
				return core.NewHyLo(net, 1e-13, 0.25, comm, tl, rng)
			}
			res, err := Drive(bg, inProc(2),
				Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0}, ElasticConfig{
					Dir:   t.TempDir(),
					Every: 1,
					Faults: &dist.FaultPlan{
						Seed: 4, PanicStep: -1,
						DegenerateKind: kind, DegenerateProb: 1,
					},
				})
			if err != nil {
				t.Fatalf("degenerate %s gathers killed the run: %v", kind, err)
			}
			for i, s := range res.Stats {
				if math.IsNaN(s.TrainLoss) || math.IsInf(s.TrainLoss, 0) {
					t.Fatalf("epoch %d loss = %v; degenerate payloads leaked", i, s.TrainLoss)
				}
			}
			// The injector must actually have fired...
			reg := telemetry.Default().Metrics
			if n := reg.Counter(telemetry.MetricFaultsInjected,
				telemetry.Label{Key: "kind", Value: "degenerate-" + kind}).Value(); n == 0 {
				t.Fatal("no degenerate payloads injected")
			}
			// ...and the health subsystem must show the solver reacting:
			// damped retries or ladder fallbacks, depending on the kind.
			snap := numerics.Default().Snapshot()
			if snap.TotalRetries() == 0 && snap.TotalFallbacks() == 0 {
				t.Fatalf("%s: degenerate kernels produced no retries or fallbacks", kind)
			}
		})
	}
}
