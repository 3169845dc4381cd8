package harness

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	distnet "repro/internal/dist/net"
	"repro/internal/train"
)

// opResult is what one end-to-end operation measured: one whole training
// run through the program's own entry point, tracing off.
type opResult struct {
	res   train.Result
	wall  time.Duration // task generation → entry point returned
	timed time.Duration // Elapsed[E−1] − Elapsed[0]
	// epochMs holds the durations of the timed epochs 1…E−1.
	epochMs []float64

	peakRSSMB  float64 // the process's resident-set high-water mark over this operation
	ckptDir    string  // TCP: rank 0's checkpoint directory
	allocBytes uint64  // heap allocated over the timed epochs, when asked for
}

func (o *opResult) setup() time.Duration { return o.wall - o.timed }

func (o *opResult) steps(spec TrainSpec) int { return spec.StepsPerEpoch() * len(o.res.Stats) }

// epochsToTarget is the 1-based count of epochs run when the target
// accuracy was first met, 0 if it never was.
func (o *opResult) epochsToTarget(target float64) int {
	for i, st := range o.res.Stats {
		if st.Metric >= target {
			return i + 1
		}
	}
	return 0
}

// runOp generates the workload's inputs from seed and trains for the given
// number of epochs through train.Run, train.RunDistributed or
// train.RunElasticProc, as the workload's transport says. dir receives the
// TCP workload's checkpoints. measureAlloc reads runtime.MemStats at the
// two ends of the timed region, which stops the world, so only the traced
// run's operation asks for it.
func runOp(spec TrainSpec, seed uint64, epochs int, dir string, measureAlloc bool) (*opResult, error) {
	resetPeakRSS()
	start := time.Now()
	t, err := newTask(spec, seed)
	if err != nil {
		return nil, err
	}
	t.cfg.Epochs = epochs
	var m0, m1 runtime.MemStats
	if measureAlloc {
		t.cfg.OnEpoch = func(st train.EpochStat) {
			switch st.Epoch {
			case 0:
				runtime.ReadMemStats(&m0)
			case epochs - 1:
				runtime.ReadMemStats(&m1)
			}
		}
	}
	op := &opResult{}
	task := train.Classification()
	switch spec.Transport {
	case Local:
		op.res = train.Run(t.cfg, t.build, t.train, t.test, task, t.makePre, spec.Target)
	case InProc:
		op.res = train.RunDistributed(spec.Ranks, t.cfg, t.build, t.train, t.test, task, t.makePre, spec.Target)
	case TCP:
		if err := runTCP(t, seed, dir, op); err != nil {
			return nil, err
		}
	}
	op.wall = time.Since(start)
	if op.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	st := op.res.Stats
	if len(st) != epochs {
		return nil, fmt.Errorf("workload %s: ran %d of %d epochs", spec.Name, len(st), epochs)
	}
	op.timed = st[len(st)-1].Elapsed - st[0].Elapsed
	for i := 1; i < len(st); i++ {
		op.epochMs = append(op.epochMs, float64(st[i].Elapsed-st[i-1].Elapsed)/1e6)
	}
	if measureAlloc && epochs > 1 {
		op.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	}
	return op, nil
}

// startProcs brings up one distnet.Proc per rank over loopback, rank 0 the
// coordinator, with the transport's default (hub) topology unless cfg says
// otherwise, and returns once every rank has passed rendezvous.
//
// The failure detector's deadline is raised from the transport's 3 s to a
// minute. All ranks live in this one process, so when the shared host takes
// the CPU away for a few seconds every rank falls silent together, and at
// 3 s the first timer to fire afterwards declares a healthy peer dead and
// the run ends in a rejoin nobody answers. Heartbeats go out at the default
// period either way; the deadline is never reached on the measured path.
func startProcs(ranks int, cfg distnet.Config) ([]*distnet.Proc, error) {
	cfg.PeerDeadline = time.Minute
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen: %w", err)
	}
	procs := make([]*distnet.Proc, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := range procs {
		c := cfg
		c.WorldSize, c.LocalRanks = ranks, 1
		if i == 0 {
			c.Listener = ln
		} else {
			c.Join = ln.Addr().String()
		}
		wg.Add(1)
		go func(i int, c distnet.Config) {
			defer wg.Done()
			procs[i], errs[i] = distnet.Start(c)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			closeProcs(procs)
			return nil, fmt.Errorf("start rank %d: %w", i, err)
		}
	}
	return procs, nil
}

func closeProcs(procs []*distnet.Proc) {
	for _, p := range procs {
		if p != nil {
			p.Close()
		}
	}
}

// runTCP trains over one distnet.Proc per rank, each driven by
// train.RunElasticProc with its own checkpoint directory, as separate
// hylo-train processes would be.
func runTCP(t *task, seed uint64, dir string, op *opResult) error {
	spec := t.spec
	procs, err := startProcs(spec.Ranks, distnet.Config{
		ConfigDigest: distnet.ConfigDigestOf(spec.Name, fmt.Sprint(seed)), Seed: seed})
	if err != nil {
		return err
	}
	defer closeProcs(procs)

	results := make([]train.Result, len(procs))
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *distnet.Proc) {
			defer wg.Done()
			ec := train.ElasticConfig{Dir: filepath.Join(dir, fmt.Sprintf("rank%d", i)), Every: spec.CkptEvery}
			results[i], errs[i] = train.RunElasticProc(p, t.cfg, ec, t.build, t.train, t.test,
				train.Classification(), t.makePre, spec.Target)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	op.res = results[0]
	op.ckptDir = filepath.Join(dir, "rank0")
	return nil
}

// checkOp applies the workload's correctness limits to one operation.
func checkOp(r *Result, spec TrainSpec, op *opResult) {
	ok := true
	for _, st := range op.res.Stats {
		if math.IsNaN(st.TrainLoss) || math.IsInf(st.TrainLoss, 0) {
			r.Fail("%s: epoch %d loss is not finite", spec.Name, st.Epoch)
			ok = false
			break
		}
	}
	switch {
	case !ok:
	case op.res.FinalLoss > spec.MaxLoss:
		r.Fail("%s: final loss %.4f above the limit %.4f", spec.Name, op.res.FinalLoss, spec.MaxLoss)
	case op.res.Best < spec.MinBest:
		r.Fail("%s: best accuracy %.4f below the limit %.4f", spec.Name, op.res.Best, spec.MinBest)
	}
}

// sameCurve reports whether a's epochs equal the same epochs of b bit for
// bit, in loss and in test metric. b may be longer than a.
func sameCurve(a, b []train.EpochStat) error {
	if len(a) > len(b) {
		return fmt.Errorf("%d epochs against %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].TrainLoss) != math.Float64bits(b[i].TrainLoss) ||
			math.Float64bits(a[i].Metric) != math.Float64bits(b[i].Metric) {
			return fmt.Errorf("epoch %d: loss %x / metric %x against loss %x / metric %x", i,
				math.Float64bits(a[i].TrainLoss), math.Float64bits(a[i].Metric),
				math.Float64bits(b[i].TrainLoss), math.Float64bits(b[i].Metric))
		}
	}
	return nil
}

// parityEpochs is how many epochs of the in-process reference the TCP
// workload re-runs to compare its own curve against.
const parityEpochs = 3

// checkTCPParity re-runs the first epochs of the operation on the
// in-process cluster and requires the TCP run's losses and accuracies to
// equal them bit for bit: the two transports must differ in nothing but
// time.
func checkTCPParity(r *Result, spec TrainSpec, seed uint64, op *opResult) error {
	ref := spec
	ref.Transport = InProc
	refOp, err := runOp(ref, seed, min(parityEpochs, spec.Epochs), "", false)
	if err != nil {
		return err
	}
	if err := sameCurve(refOp.res.Stats, op.res.Stats); err != nil {
		r.Fail("%s: TCP run differs from the in-process run of the same seed: %v", spec.Name, err)
	}
	return nil
}

// fastestEpochs returns, for each timed epoch of the operation, its
// shortest duration over the run's repetitions, in milliseconds. The
// repetitions do identical work (one seed), and what other tenants of the
// machine take from a run only ever adds time, so the fastest repetition of
// each epoch is the reading least disturbed. Summed, they are the operation
// with every epoch's own cost in it (a checkpoint epoch stays a checkpoint
// epoch) and as little of the neighbours' as the run allows.
func fastestEpochs(ops []*opResult) []float64 {
	best := append([]float64(nil), ops[0].epochMs...)
	for _, op := range ops[1:] {
		for k, ms := range op.epochMs {
			best[k] = math.Min(best[k], ms)
		}
	}
	return best
}

// RunTrainE2E measures one training workload end to end. It repeats the
// operation — the same seed, so the same inputs and the same arithmetic —
// for about o.Seconds of wall time, set-ups included, and reports every
// epoch, and the set-up, at its fastest over the repetitions.
func RunTrainE2E(spec TrainSpec, o RunOpts) (*Result, error) {
	r := newResult(spec.Name, false)
	var ops []*opResult
	for start := time.Now(); ; {
		dir := filepath.Join(o.WorkDir, fmt.Sprintf("op%d", len(ops)))
		op, err := runOp(spec, o.Seed, spec.Epochs, dir, false)
		if err != nil {
			return nil, err
		}
		r.Attempted++
		checkOp(r, spec, op)
		if len(ops) > 0 {
			if err := sameCurve(op.res.Stats, ops[0].res.Stats); err != nil {
				r.Fail("%s: two operations with one seed differ: %v", spec.Name, err)
			}
		}
		ops = append(ops, op)
		// Stop where another operation would overshoot the budget by more
		// than this one undershoots it.
		if (time.Since(start) + op.wall/2).Seconds() >= o.Seconds {
			break
		}
	}
	if spec.Transport == TCP {
		if err := checkTCPParity(r, spec, o.Seed, ops[0]); err != nil {
			return nil, err
		}
	}

	var setups, peaks []float64
	for _, op := range ops {
		setups = append(setups, op.setup().Seconds())
		peaks = append(peaks, op.peakRSSMB)
	}
	best := fastestEpochs(ops)
	r.Notes = append(r.Notes, fmt.Sprintf("timed epochs, each at its fastest of %d repetitions (ms): %.0f", len(ops), best))
	r.Notes = append(r.Notes, fmt.Sprintf("peak RSS by repetition (MB): %.0f", peaks))
	samples := float64(len(best) * spec.StepsPerEpoch() * spec.GlobalBatch)
	r.Set("samples_per_s", samples/(Sum(best)/1e3), len(ops))
	r.Set("latency_p50_ms", Median(best), len(best))
	r.Set("setup_s", slices.Min(setups), len(setups))
	r.Set("peak_rss_mb", Median(peaks), len(peaks))
	return r, nil
}

// resetPeakRSS starts an operation from the memory a fresh process would
// have: it collects the heap twice (the second collection empties the
// sync.Pools behind mat's workspaces), returns the freed pages to the system
// and resets the kernel's resident-set high-water mark, so that peakRSSMB
// then reads this operation's own peak and not the highest of all before it.
// Otherwise what the previous repetition left behind decides when the
// collector runs, and with it the peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Where the kernel refuses the reset the mark stays the process's own,
	// which is still a peak, only of more than one operation.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
