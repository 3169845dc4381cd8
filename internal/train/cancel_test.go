package train

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/mat"
)

// Cancelling mid-run must stop the loop at the next epoch boundary, force a
// checkpoint off-cadence, and return ErrCancelled — and a resumed run from
// that checkpoint must reproduce the uninterrupted history bit for bit.
func TestCancelForcesResumableCheckpoint(t *testing.T) {
	tr, te := vectorTask(21)
	cfg := baseCfg()
	cfg.Epochs = 6
	hylo := precondFactories()["HyLo"]

	ref := Run(cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg := cfg
	ccfg.OnEpoch = func(st EpochStat) {
		if st.Epoch == 2 {
			cancel()
		}
	}
	// Every=10 never fires on cadence inside 6 epochs, so the only way a
	// checkpoint can exist afterwards is the forced write on cancellation.
	res, err := Drive(ctx, inProc(1),
		Job{ccfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0},
		ElasticConfig{Dir: dir, Every: 10})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v; want ErrCancelled", err)
	}
	if len(res.Stats) != 3 {
		t.Fatalf("cancelled run recorded %d epochs; want 3", len(res.Stats))
	}

	mgr, err := ckpt.NewManager(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := mgr.LoadLatest()
	if err != nil {
		t.Fatalf("no resumable checkpoint after cancel: %v", err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("checkpoint epoch = %d; want 2 (the cancellation epoch)", snap.Epoch)
	}

	resumed, err := Drive(bg, inProc(1),
		Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0},
		ElasticConfig{Dir: dir, Every: 10, Resume: true})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	statsClose(t, ref.Stats, resumed.Stats, 0)
}

// The cancel decision is collective: with P workers the close can race each
// rank's local check, but the all-reduce must make every replica exit at
// the same epoch — no hang, no mismatched collective sequences — and the
// resumed run must still match the uninterrupted reference.
func TestCancelDistributedStaysCollective(t *testing.T) {
	tr, te := vectorTask(22)
	cfg := baseCfg()
	cfg.Epochs = 6
	cfg.BatchSize = 15 // 2 workers × 15 = the P=1 global batch
	hylo := precondFactories()["HyLo"]

	ref := RunDistributed(2, cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg := cfg
	ccfg.OnEpoch = func(st EpochStat) {
		if st.Epoch == 1 {
			cancel()
		}
	}
	res, err := Drive(ctx, inProc(2),
		Job{ccfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0},
		ElasticConfig{Dir: dir, Every: 1})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v; want ErrCancelled", err)
	}
	if got := len(res.Stats); got != 2 {
		t.Fatalf("cancelled run recorded %d epochs; want 2", got)
	}

	resumed, err := Drive(bg, inProc(2),
		Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), hylo, 0},
		ElasticConfig{Dir: dir, Every: 1, Resume: true})
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	statsClose(t, ref.Stats, resumed.Stats, 0)
}

// countingCluster counts the Comm collectives its ranks issue. The
// checkpoint gather is control plane (it unwraps to the transport) and is
// not among them.
type countingCluster struct {
	Cluster
	calls *atomic.Int64
}

func (c countingCluster) run(fn func(dist.Comm)) []error {
	return c.Cluster.run(func(comm dist.Comm) { fn(countingComm{comm, c.calls}) })
}

type countingComm struct {
	dist.Comm
	calls *atomic.Int64
}

func (c countingComm) Unwrap() dist.Comm { return c.Comm }

func (c countingComm) AllGatherMat(m *mat.Dense) []*mat.Dense {
	c.calls.Add(1)
	return c.Comm.AllGatherMat(m)
}

func (c countingComm) AllReduceMat(m *mat.Dense) *mat.Dense {
	c.calls.Add(1)
	return c.Comm.AllReduceMat(m)
}

func (c countingComm) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	c.calls.Add(1)
	return c.Comm.BroadcastMat(root, m)
}

func (c countingComm) AllReduceScalar(v float64) float64 {
	c.calls.Add(1)
	return c.Comm.AllReduceScalar(v)
}

// An uncancellable context must issue exactly the collectives of the run
// without checkpoints — ctx.Done() is nil, so the per-epoch cancellation
// agreement is never made — while a context that could be cancelled pays
// one scalar all-reduce per rank for every epoch but the last.
func TestDriverBackgroundContextAddsNoCollectives(t *testing.T) {
	tr, te := vectorTask(23)
	cfg := baseCfg()
	cfg.Epochs = 4
	cfg.BatchSize = 15
	job := Job{cfg, mlpBuilder(12, 3), tr, te, Classification(), precondFactories()["HyLo"], 0}
	const p = 2

	count := func(ctx context.Context, ec ElasticConfig) (Result, int64) {
		t.Helper()
		var calls atomic.Int64
		res, err := Drive(ctx, countingCluster{inProc(p), &calls}, job, ec)
		if err != nil {
			t.Fatal(err)
		}
		return res, calls.Load()
	}
	plain, base := count(bg, ElasticConfig{})
	if base == 0 {
		t.Fatal("the counting Comm saw no collectives")
	}
	ckpted, n := count(bg, ElasticConfig{Dir: t.TempDir(), Every: 1})
	if n != base {
		t.Fatalf("uncancellable checkpointed run issued %d collectives; the plain run %d", n, base)
	}
	statsClose(t, plain.Stats, ckpted.Stats, 0)

	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	live, n := count(ctx, ElasticConfig{Dir: t.TempDir(), Every: 1})
	if want := base + p*int64(cfg.Epochs-1); n != want {
		t.Fatalf("cancellable run issued %d collectives; want %d (one agreement per rank and non-final epoch)", n, want)
	}
	statsClose(t, plain.Stats, live.Stats, 0)
}

// OnEpoch must fire once per completed epoch, in order, with the same
// statistics that land in Result.Stats.
func TestOnEpochHook(t *testing.T) {
	tr, te := vectorTask(24)
	cfg := baseCfg()
	cfg.Epochs = 3
	var seen []EpochStat
	cfg.OnEpoch = func(st EpochStat) { seen = append(seen, st) }
	res := Run(cfg, mlpBuilder(12, 3), tr, te, Classification(), nil, 0)
	if len(seen) != len(res.Stats) {
		t.Fatalf("hook fired %d times for %d epochs", len(seen), len(res.Stats))
	}
	for i := range seen {
		if seen[i].Epoch != i || seen[i].TrainLoss != res.Stats[i].TrainLoss {
			t.Fatalf("hook stat %d = %+v; want %+v", i, seen[i], res.Stats[i])
		}
	}
}
