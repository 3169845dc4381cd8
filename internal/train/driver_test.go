package train

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
)

// kidFactory is HyLo pinned to KID, so every update iteration takes the
// exact-decomposition path.
func kidFactory(net *nn.Network, comm dist.Comm, tl *dist.Timeline, rng *mat.RNG) opt.Preconditioner {
	h := core.NewHyLo(net, 0.1, 0.25, comm, tl, rng)
	h.Policy = core.FixedSwitch{Mode: core.ModeKID}
	return h
}

// One job must train to the same bits wherever the driver runs it: at one
// rank on Local and on an in-process cluster of one, at two ranks on an
// in-process cluster — and in each case with or without a checkpoint
// directory (hylo-train -checkpoint-dir at one worker swaps Local for the
// in-process cluster, and must not change a number by doing so).
func TestDriverParityAcrossClusters(t *testing.T) {
	tr, te := vectorTask(51)
	methods := []struct {
		name string
		pre  PrecondFactory
	}{{"sgd", nil}, {"hylo-kid", kidFactory}, {"kfac", precondFactories()["KFAC"]}}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			for _, p := range []int{1, 2} {
				cfg := baseCfg()
				cfg.Epochs = 3
				cfg.BatchSize = 30 / p
				job := Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), m.pre, 0}
				drive := func(cl Cluster, ec ElasticConfig) Result {
					t.Helper()
					res, err := Drive(bg, cl, job, ec)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ref := drive(inProc(p), ElasticConfig{})
				bitsEqualResults(t, "in-process, checkpointed", ref,
					drive(inProc(p), ElasticConfig{Dir: t.TempDir(), Every: 1}))
				if p == 1 {
					bitsEqualResults(t, "local", ref, drive(Local(), ElasticConfig{}))
					bitsEqualResults(t, "local, checkpointed", ref,
						drive(Local(), ElasticConfig{Dir: t.TempDir(), Every: 1}))
				}
			}
		})
	}
}

// The barrier watchdog belongs to the cluster, so it guards a run without
// a checkpoint directory too: rank 0 stalling in OnEpoch (which runs on
// its training goroutine) while rank 1 waits at the epoch barrier must
// come back from the driver as the poisoned-cluster error, promptly,
// instead of the run completing 3 s later.
func TestDriverBarrierTimeoutWithoutCheckpoints(t *testing.T) {
	tr, te := vectorTask(52)
	cfg := baseCfg()
	cfg.Epochs = 3
	cfg.BatchSize = 15
	cfg.OnEpoch = func(EpochStat) { time.Sleep(time.Second) }
	c := dist.NewCluster(2)
	c.SetBarrierTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err := Drive(bg, InProcess(c),
		Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), nil, 0}, ElasticConfig{})
	if err == nil || !strings.Contains(err.Error(), dist.ErrClusterPoisoned) {
		t.Fatalf("err = %v; want the poisoned-cluster error", err)
	}
	if d := time.Since(start); d > 2500*time.Millisecond {
		t.Fatalf("driver took %v to report the hang; the stall is 1 s", d)
	}
}

// The KL clip's copy of the raw gradients lives in worker-owned buffers: a
// steady-state step must allocate less than one copy of the parameters.
// Measured as the growth in bytes allocated between a 2-epoch and a
// 4-epoch run, so everything a run allocates once cancels out.
func TestDriverStepAllocationBelowParamBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the matrix pools miss at random")
	}
	tr, te := vectorTask(53)
	build := func(rng *mat.RNG) *nn.Network {
		return models.MLP(nn.Vec(10), []int{64, 32}, 3, rng)
	}
	cfg := baseCfg()
	allocated := func(epochs int) uint64 {
		cfg.Epochs = epochs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(cfg, build, tr, te, Classification(), kidFactory, 0)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(1) // warm the matrix pools
	// What a run allocates once varies by ~100 KB with how full the previous
	// run left the pools — single readings had 2 epochs above 4 in 6–9 runs
	// of 100, collections off or on; the least of three is a length's floor.
	least := func(epochs int) uint64 { return min(allocated(epochs), allocated(epochs), allocated(epochs)) }
	short, long := least(2), least(4)

	var paramBytes uint64
	for _, p := range build(mat.NewRNG(1)).Params() {
		paramBytes += 8 * uint64(len(p.Grad.Data()))
	}
	steps := uint64(2 * (tr.Len() / cfg.BatchSize))
	if long <= short {
		t.Fatalf("4 epochs allocated %d bytes, 2 epochs %d", long, short)
	}
	if perStep := (long - short) / steps; perStep >= paramBytes {
		t.Fatalf("each extra step allocates %d bytes; the parameters are %d", perStep, paramBytes)
	}
}
