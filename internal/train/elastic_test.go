package train

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

var bg = context.Background()

// inProc is a fresh in-process cluster of p ranks.
func inProc(p int) Cluster { return InProcess(dist.NewCluster(p)) }

// shrinking is inProc dropping one rank per failure: the in-process
// reference for a TCP cluster that loses a process.
func shrinking(p int) Cluster {
	c := dist.NewCluster(p)
	c.ShrinkOnFailure = true
	return InProcess(c)
}

// statsClose compares two epoch histories ignoring wall-clock fields.
func statsClose(t *testing.T, want, got []EpochStat, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("epoch counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if math.Abs(want[i].TrainLoss-got[i].TrainLoss) > tol*(1+math.Abs(want[i].TrainLoss)) {
			t.Fatalf("epoch %d: loss %.15f vs %.15f", i, want[i].TrainLoss, got[i].TrainLoss)
		}
		if math.Abs(want[i].Metric-got[i].Metric) > tol {
			t.Fatalf("epoch %d: metric %.15f vs %.15f", i, want[i].Metric, got[i].Metric)
		}
	}
}

// The chaos acceptance test: a worker panic injected mid-training must be
// recovered by Drive — reload the last good checkpoint, reset the cluster,
// resume — and, because the checkpoint captures the complete
// trainer/optimizer/preconditioner/RNG state, reach bit for bit the
// per-epoch losses and metrics of an uninterrupted run with identical
// seeds, for every optimizer.
func TestElasticRecoveryMatchesUninterrupted(t *testing.T) {
	tr, te := vectorTask(11)
	methods := precondFactories()
	methods["SGD"], methods["ADAM"] = nil, nil
	for name, pre := range methods {
		t.Run(name, func(t *testing.T) {
			cfg := baseCfg()
			cfg.Epochs = 6
			cfg.BatchSize = 15 // 2 workers × 15 = global batch 30, 9 steps/epoch
			cfg.Adam = name == "ADAM"
			ref := RunDistributed(2, cfg, mlpBuilder(12, 3), tr, te, Classification(), pre, 0)

			// Counters prove the fault actually fired and recovery actually
			// ran — without them a broken injector would make this test pass
			// trivially.
			prev := telemetry.Default()
			telemetry.SetDefault(telemetry.New())
			telemetry.SetEnabled(true)
			defer func() {
				telemetry.SetEnabled(false)
				telemetry.SetDefault(prev)
			}()

			res, err := Drive(bg, inProc(2),
				Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), pre, 0}, ElasticConfig{
					Dir:   t.TempDir(),
					Every: 1,
					// Rank 1 dies entering step 19 (epoch 2, off the update
					// cadence); checkpoints exist for epochs 0 and 1, so
					// recovery resumes the interrupted epoch 2 from the
					// epoch-1 snapshot.
					Faults: &dist.FaultPlan{Seed: 1, PanicRank: 1, PanicStep: 19},
				})
			if err != nil {
				t.Fatalf("Drive failed to recover: %v", err)
			}
			reg := telemetry.Default().Metrics
			if n := reg.Counter(telemetry.MetricFaultsInjected,
				telemetry.Label{Key: "kind", Value: "panic"}).Value(); n != 1 {
				t.Fatalf("injected panics = %d; want 1", n)
			}
			if n := reg.Counter(telemetry.MetricRecoveries).Value(); n != 1 {
				t.Fatalf("recoveries = %d; want 1", n)
			}
			if reg.Counter(telemetry.MetricCkptRestores).Value() == 0 {
				t.Fatal("recovery did not load a checkpoint")
			}
			if n := reg.Counter(telemetry.MetricCkptErrors).Value(); n != 0 {
				t.Fatalf("checkpoint errors = %d; want 0", n)
			}
			statsClose(t, ref.Stats, res.Stats, 0)
			if ref.FinalLoss != res.FinalLoss || ref.Best != res.Best {
				t.Fatalf("final loss, best: uninterrupted %.17g, %g vs recovered %.17g, %g",
					ref.FinalLoss, ref.Best, res.FinalLoss, res.Best)
			}
		})
	}
}

// Deliberate corruption of the newest checkpoint must be caught by the
// checksum at load, quarantined, and resolved by falling back to the
// previous good snapshot — from which the rerun reproduces the
// uninterrupted history exactly.
func TestElasticCorruptedCheckpointFallsBack(t *testing.T) {
	tr, te := vectorTask(12)
	dir := t.TempDir()
	hylo := precondFactories()["HyLo"]

	cfgShort := baseCfg()
	cfgShort.Epochs = 3
	cfgShort.BatchSize = 15
	if _, err := Drive(bg, inProc(2),
		Job{cfgShort, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0},
		ElasticConfig{Dir: dir, Every: 1}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no checkpoints written: %v", err)
	}
	newest := filepath.Join(dir, ents[len(ents)-1].Name())
	b, _ := os.ReadFile(newest)
	b[len(b)-5] ^= 0x20
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	cfgFull := cfgShort
	cfgFull.Epochs = 6
	res, err := Drive(bg, inProc(2),
		Job{cfgFull, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0},
		ElasticConfig{Dir: dir, Every: 1, Resume: true})
	if err != nil {
		t.Fatalf("resume after corruption failed: %v", err)
	}

	quarantined := false
	ents, _ = os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".corrupt") {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatal("corrupted checkpoint was not quarantined")
	}

	ref := RunDistributed(2, cfgFull, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)
	statsClose(t, ref.Stats, res.Stats, 1e-12)
}

// Elastic shrink: after a failure with AllowShrink, training resumes on
// P−1 workers from the last checkpoint and still completes every epoch.
func TestElasticShrinkRecovers(t *testing.T) {
	tr, te := vectorTask(13)
	cfg := baseCfg()
	cfg.Epochs = 4
	cfg.BatchSize = 15
	res, err := Drive(bg, shrinking(2),
		Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), precondFactories()["KFAC"], 0}, ElasticConfig{
			Dir:    t.TempDir(),
			Every:  1,
			Faults: &dist.FaultPlan{Seed: 2, PanicRank: 0, PanicStep: 13}, // epoch 1
		})
	if err != nil {
		t.Fatalf("shrink recovery failed: %v", err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats = %d epochs; want 4", len(res.Stats))
	}
	if res.Stats[3].TrainLoss >= res.Stats[0].TrainLoss {
		t.Fatalf("loss did not decrease across recovery: %g → %g",
			res.Stats[0].TrainLoss, res.Stats[3].TrainLoss)
	}
}

// A failure before the first checkpoint restarts cold instead of erroring.
func TestElasticRestartsColdWithoutCheckpoint(t *testing.T) {
	tr, te := vectorTask(14)
	cfg := baseCfg()
	cfg.Epochs = 2
	cfg.BatchSize = 15
	res, err := Drive(bg, inProc(2),
		Job{cfg, mlpBuilder(8, 3), tr, te, Classification(), nil, 0}, ElasticConfig{
			Dir:    t.TempDir(),
			Every:  1,
			Faults: &dist.FaultPlan{Seed: 3, PanicRank: 1, PanicStep: 0},
		})
	if err != nil {
		t.Fatalf("cold restart failed: %v", err)
	}
	if len(res.Stats) != 2 {
		t.Fatalf("stats = %d epochs; want 2", len(res.Stats))
	}
}

// Regression for the sharding remainder drop: when the global batch is not
// divisible by P (here the whole 13-sample set against P=2), the last rank
// must take the remainder and the weighted average must reproduce the
// local full-batch run exactly.
func TestShardingRemainderNotDropped(t *testing.T) {
	full := data.SynthVectors(mat.NewRNG(21), 3, 6, 10, 0.3) // 18 samples
	tr, te := data.Split(mat.NewRNG(22), full, 5.0/18)       // 13 train, 5 test

	cfg := baseCfg()
	cfg.Epochs = 3
	cfg.BatchSize = 13
	local := Run(cfg, mlpBuilder(8, 3), tr, te, Classification(), nil, 0)

	cfgD := cfg
	cfgD.BatchSize = 7 // global 14 > 13 samples → batch 13, shards 6 + 7
	distRes := RunDistributed(2, cfgD, mlpBuilder(8, 3), tr, te, Classification(), nil, 0)

	statsClose(t, local.Stats, distRes.Stats, 1e-9)
}

// A non-finite loss or gradient must not reach the preconditioner or the
// weights: the iteration falls back to a sanitized first-order step and is
// counted, and training carries on with finite parameters.
func TestNonfiniteGuardSkipsAndCounts(t *testing.T) {
	tr, te := vectorTask(15)
	tr.X.Data()[3] = math.NaN() // one poisoned feature touches most batches

	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	}()

	cfg := baseCfg()
	cfg.Epochs = 2
	res := Run(cfg, mlpBuilder(8, 3), tr, te, Classification(),
		precondFactories()["HyLo"], 0)

	skips := telemetry.Default().Metrics.Counter(telemetry.MetricNonfiniteSkips).Value()
	if skips == 0 {
		t.Fatal("non-finite iterations were not counted")
	}
	if math.IsNaN(res.FinalLoss) || math.IsInf(res.FinalLoss, 0) {
		t.Fatalf("final loss is non-finite: %v", res.FinalLoss)
	}
	if math.IsNaN(res.Best) {
		t.Fatal("metric is NaN: non-finite state reached the weights")
	}
}
