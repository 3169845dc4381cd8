package train

import (
	"encoding/binary"
	"math"
	"strconv"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/opt"
	"repro/internal/telemetry"
)

// worker is one rank of one generation: its replica, its loop state, and —
// as methods — the phases of the run. train is the whole of it: build,
// restore, then per epoch the iterations (loadBatch, forwardBackward,
// reduce, precondition, apply), evaluate, checkpoint and the agreeToStop
// decisions. The driver sets the first five fields.
type worker struct {
	job    *Job
	comm   dist.Comm
	res    *Result // rank 0's; nil on every other rank
	ckpts  checkpoints
	cancel <-chan struct{} // closed to request a cooperative stop; may be nil

	rank, p   int
	net       *nn.Network
	params    []*nn.Param
	optimizer opt.Optimizer
	pre       opt.Preconditioner // nil for first-order methods
	aug       *data.Augmenter
	it        *data.BatchIterator
	adapter   *core.DampingAdapter
	// raw holds the unpreconditioned gradients for the KL clip, one buffer
	// per parameter for the life of the worker (nil for first-order methods).
	raw []*mat.Dense
	// savers are the per-rank checkpoint sections.
	savers []ckpt.StateSaver

	start      time.Time
	step       int
	updateFreq int
	// bestMetric and stale are the early-stopping bookkeeping (rank 0).
	bestMetric float64
	stale      int
	// forceUpdate schedules a second-order refresh on the first resumed
	// step when this rank's preconditioner section did not survive the
	// restore (a snapshot from a cluster of another shape holds none for
	// this rank, or the section failed to load) — stale-factor-free
	// resumption at the cost of determinism.
	forceUpdate bool
}

// loopState is the worker seen as a saver of its trainer-loop
// bookkeeping: early stopping, damping, the wall-clock offset and the
// rank-0 result history. With the weights and the batch iterator it makes
// up the checkpoint's Trainer section, the state identical across
// replicas that rank 0 writes and every rank restores.
type loopState worker

func (*loopState) StateKey() string { return "train/loop" }

// StateBytes is AppendState's length: seven 8-byte words, the adapter's
// flag byte, the history's count and 32 bytes per epoch.
func (l *loopState) StateBytes() int { return 7*8 + 1 + 4 + 32*len(l.res.Stats) }

func (l *loopState) AppendState(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(mat.AppendF64(b, l.bestMetric), uint64(l.stale))
	b = le.AppendUint64(b, uint64(time.Since(l.start)))
	prev, seen := 0.0, false
	if l.adapter != nil {
		prev, seen = l.adapter.State()
	}
	b = mat.AppendF64(mat.AppendBool(b, seen), prev)
	res := l.res
	b = le.AppendUint64(mat.AppendF64(mat.AppendF64(b, res.Best), res.FinalLoss), uint64(res.TimeToTarget))
	b = le.AppendUint32(b, uint32(len(res.Stats)))
	for _, st := range res.Stats {
		b = le.AppendUint64(b, uint64(st.Epoch))
		b = le.AppendUint64(mat.AppendF64(mat.AppendF64(b, st.TrainLoss), st.Metric), uint64(st.Elapsed))
	}
	return b
}

func (l *loopState) LoadState(b []byte) error {
	r := mat.NewReader(b)
	best, stale, elapsed := r.F64(), int(r.U64()), time.Duration(r.U64())
	seen, prev := r.U8() != 0, r.F64()
	res := Result{Best: r.F64(), FinalLoss: r.F64(), TimeToTarget: time.Duration(r.U64())}
	stats := mat.NewReader(r.Take(32 * int(r.U32())))
	for stats.Len() > 0 {
		res.Stats = append(res.Stats, EpochStat{Epoch: int(stats.U64()), TrainLoss: stats.F64(), Metric: stats.F64(), Elapsed: time.Duration(stats.U64())})
	}
	if r.Err() != nil {
		return r.Err()
	}
	l.bestMetric, l.stale, l.start = best, stale, time.Now().Add(-elapsed)
	if l.adapter != nil && seen {
		l.adapter.Restore(prev, true)
	}
	if l.res != nil {
		l.res.Stats, l.res.Best, l.res.TimeToTarget, l.res.FinalLoss = res.Stats, res.Best, res.TimeToTarget, res.FinalLoss
	}
	return nil
}

// rngSection checkpoints a trainer-owned RNG stream in a per-rank section
// of its own.
func rngSection(key string, rng *mat.RNG) *mat.Section {
	return &mat.Section{Key: key, State: mat.Fields{rng}}
}

// train runs the worker from construction (or resume, when non-nil) to the
// last epoch or an agreed early exit, and reports whether that exit was a
// cancellation.
func (w *worker) train(resume *ckpt.Snapshot, tl *dist.Timeline) (cancelled bool) {
	w.build(tl)
	epoch := 0
	if resume != nil {
		epoch = w.restore(resume)
	}
	for ; epoch < w.job.Config.Epochs; epoch++ {
		if stop, byCancel := w.epoch(epoch); stop {
			cancelled = byCancel
			break
		}
	}
	if w.res != nil {
		w.res.Timeline = tl
		w.res.Method = w.optimizer.Name()
		w.res.StateBytes = w.optimizer.StateBytes()
		if w.pre != nil {
			w.res.Method = w.pre.Name()
			w.res.StateBytes += w.pre.StateBytes()
			if mr, ok := w.pre.(interface{ ModeStrings() []string }); ok {
				w.res.EpochModes = mr.ModeStrings()
			}
		}
	}
	return cancelled
}

// build constructs the replica: network, optimizer, preconditioner, batch
// iterator and the per-rank checkpoint sections.
func (w *worker) build(tl *dist.Timeline) {
	cfg := &w.job.Config
	w.rank, w.p = w.comm.ID(), w.comm.Size()
	// Identical seeds across workers → identical replicas; the sampling
	// RNG is rank-offset so KIS draws differ per worker.
	w.net = w.job.Build(mat.NewRNG(cfg.Seed))
	batchRNG := mat.NewRNG(cfg.Seed + 1)
	sampleRNG := mat.NewRNG(cfg.Seed + 17*uint64(w.rank) + 2)

	w.params = w.net.Params()
	if cfg.Adam {
		w.optimizer = opt.NewAdam(w.params, cfg.LR.Base, cfg.WeightDecay)
	} else {
		w.optimizer = opt.NewSGD(w.params, cfg.LR.Base, cfg.Momentum, cfg.WeightDecay)
	}
	if w.job.Precond != nil {
		w.pre = w.job.Precond(w.net, w.comm, tl, sampleRNG)
		w.raw = make([]*mat.Dense, len(w.params))
		for i, prm := range w.params {
			w.raw[i] = mat.NewDense(prm.Grad.Rows(), prm.Grad.Cols())
		}
	}
	if cfg.Augment != nil {
		w.aug = cfg.Augment(mat.NewRNG(cfg.Seed + 31*uint64(w.rank) + 5))
	}
	n := w.job.Train.Len()
	w.it = data.NewBatchIterator(batchRNG, n, min(cfg.BatchSize*w.p, n))
	w.updateFreq = max(cfg.UpdateFreq, 1)
	if cfg.AdaptDamping {
		w.adapter = &core.DampingAdapter{Min: cfg.Damping / 100, Max: cfg.Damping * 100}
	}
	w.start = time.Now()

	// Per-rank checkpoint sections: optimizer buffers, preconditioner state
	// and the rank-offset RNG streams. sampleRNG is restored through its
	// saver — after the preconditioner was built — because HyLo aliases
	// the same RNG object.
	w.savers = []ckpt.StateSaver{rngSection("rng/sample", sampleRNG), w.optimizer}
	if w.pre != nil {
		w.savers = append(w.savers, w.pre)
	}
	if w.aug != nil {
		w.savers = append(w.savers, rngSection("rng/aug", w.aug.RNG()))
	}
}

// restore loads snap into the freshly built replica — the replicated
// trainer state on every rank, this rank's sections when the snapshot has
// them — and returns the epoch to continue from. Damaged parts are counted
// and skipped: a partial restore trains on, a failed one would not.
func (w *worker) restore(snap *ckpt.Snapshot) (startEpoch int) {
	sections, err := ckpt.DecodeSections(snap.Trainer)
	if ok, lerr := ckpt.LoadInto(sections, (*loopState)(w)); err != nil || !ok || lerr != nil {
		telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
	} else {
		startEpoch, w.step = snap.Epoch+1, snap.Step
		for _, s := range []ckpt.StateSaver{w.net, w.it} {
			if _, err := ckpt.LoadInto(sections, s); err != nil {
				telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
			}
		}
	}
	preRestored := false
	if w.rank < len(snap.Ranks) && len(snap.Ranks[w.rank]) > 0 {
		if sections, err := ckpt.DecodeSections(snap.Ranks[w.rank]); err == nil {
			for _, s := range w.savers {
				ok, err := ckpt.LoadInto(sections, s)
				if err != nil {
					telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
				} else if ok && s == w.pre {
					preRestored = true
				}
			}
		}
	}
	w.forceUpdate = w.pre != nil && !preRestored
	return startEpoch
}

func epochLabel(epoch int) telemetry.Label {
	return telemetry.Label{Key: "epoch", Value: strconv.Itoa(epoch)}
}

// epoch runs one epoch — its iterations, then the boundary work every rank
// walks in the same order — and reports whether the run ends here, and
// whether by cancellation.
func (w *worker) epoch(epoch int) (stop, cancelled bool) {
	cfg := &w.job.Config
	endEpoch := telemetry.Span("epoch", w.rank, epochLabel(epoch))
	if w.rank == 0 {
		telemetry.SetGauge(telemetry.MetricEpoch, float64(epoch))
	}
	lr := cfg.LR.At(epoch)
	w.optimizer.SetLR(lr)
	if ea, ok := w.pre.(EpochAware); ok {
		ea.OnEpochStart(epoch, cfg.LR.DecaysAt(epoch))
	}
	steps := w.it.BatchesPerEpoch()
	var lossSum float64
	for b := 0; b < steps; b++ {
		lossSum += w.iteration(epoch, lr)
	}
	meanLoss := lossSum / float64(steps)

	if w.res != nil {
		w.evaluate(epoch, meanLoss)
	}
	// LM damping adjustment from the (identical-across-workers) epoch loss.
	if w.adapter != nil {
		if dp, ok := w.pre.(dampable); ok {
			dp.SetDamping(w.adapter.Observe(dp.CurrentDamping(), meanLoss))
		}
	}
	// Cooperative cancellation (the job-server path). A cancellation lands
	// as a forced checkpoint below plus a joint early exit; on the final
	// epoch it is moot, so the (epoch-consistent) guard skips the extra
	// collective there.
	cancelNow := w.cancel != nil && epoch < cfg.Epochs-1 && w.agreeToStop(w.cancelRequested())
	// On cadence, or forced off it so a cancelled run stays resumable.
	if w.ckpts.every > 0 && (cancelNow || (epoch+1)%w.ckpts.every == 0) {
		w.checkpoint(epoch)
	}
	// Keep workers in step at epoch boundaries (rank 0 evaluates).
	if b, ok := dist.AsBarrier(w.comm); ok {
		b.Barrier()
	}
	endEpoch()
	// The checkpoint above has been published and every rank agreed on
	// cancelNow, so all replicas leave the loop at the same epoch.
	if cancelNow {
		return true, true
	}
	// Early stopping: rank 0 decides, the collective spreads the decision.
	return cfg.Patience > 0 && w.agreeToStop(w.outOfPatience()), false
}

// iteration is one data-parallel step of Alg. 1 and returns the step's
// globally averaged loss (0 for a step the non-finite guard skipped, which
// the epoch mean leaves out).
func (w *worker) iteration(epoch int, lr float64) float64 {
	// Scheduled fault injection observes step boundaries here.
	if st, ok := w.comm.(dist.Stepper); ok {
		st.OnStep(w.step)
	}
	endIter := telemetry.Span("iteration", w.rank, epochLabel(epoch))
	x, tgt, wgt := w.loadBatch()
	isUpdate := w.pre != nil && (w.step%w.updateFreq == 0 || w.forceUpdate)
	loss := w.reduce(w.forwardBackward(x, tgt, wgt, isUpdate))

	// Non-finite guard: a diverged loss or gradient would poison the
	// curvature estimates and every parameter it touches. Skip the
	// preconditioned update, zero the offending entries, and fall back to a
	// plain first-order step. The reduced loss and gradients are bitwise
	// identical across ranks, so every worker takes the same branch and
	// collective sequences stay matched.
	finite := allFinite(loss, w.params)
	if !finite {
		telemetry.IncCounter(telemetry.MetricNonfiniteSkips, 1)
		numerics.RecordFallback("train.step", numerics.RungIdentity,
			"non-finite loss or gradient: plain first-order step")
		for _, prm := range w.params {
			numerics.AddScrubs(prm.Grad.ScrubNonFinite())
		}
		loss = 0
	}
	if maxNorm := w.job.Config.MaxGradNorm; maxNorm > 0 {
		opt.ClipGradNorm(w.params, maxNorm)
	}
	if finite && w.pre != nil {
		w.precondition(isUpdate, lr)
	}
	w.optimizer.Step() // apply
	w.step++
	endIter()
	if finite && w.rank == 0 {
		telemetry.IncCounter(telemetry.MetricTrainIterations, 1)
	}
	return loss
}

// loadBatch draws the next global batch and cuts this rank's shard from
// it. wgt rescales the shard's mean loss and gradient so that the 1/P
// average over ranks is exactly the full-batch mean even when shards are
// uneven: len(local)·P/len(global).
func (w *worker) loadBatch() (x *mat.Dense, tgt nn.Target, wgt float64) {
	globalIdx := w.it.Next()
	// Each worker takes its contiguous slice; the trailing remainder goes
	// to the last rank, so no sample is silently dropped.
	per := len(globalIdx) / w.p
	lo := w.rank * per
	hi := lo + per
	if w.rank == w.p-1 {
		hi = len(globalIdx)
	}
	localIdx := globalIdx[lo:hi]
	wgt = float64(len(localIdx)) * float64(w.p) / float64(len(globalIdx))
	x, tgt = w.job.Train.Batch(localIdx)
	if w.aug != nil {
		x = w.aug.Apply(x)
	}
	return x, tgt, wgt
}

// forwardBackward leaves this rank's weighted gradients in the parameters
// and returns its weighted loss; capture switches on the per-sample
// recording a second-order update reads.
func (w *worker) forwardBackward(x *mat.Dense, tgt nn.Target, wgt float64, capture bool) float64 {
	w.net.SetCapture(capture)
	w.net.ZeroGrad()
	out := w.net.Forward(x, true)
	loss, g := w.job.Task.Loss.Forward(out, tgt)
	w.net.Backward(g)
	if wgt != 1 {
		loss *= wgt
		for _, prm := range w.params {
			prm.Grad.Scale(wgt)
		}
	}
	return loss
}

// reduce averages gradients and loss across workers (standard data
// parallelism).
func (w *worker) reduce(loss float64) float64 {
	if w.p == 1 {
		return loss
	}
	for _, prm := range w.params {
		w.comm.AllReduceMat(prm.Grad) // the sum lands in prm.Grad
		prm.Grad.Scale(1 / float64(w.p))
	}
	return w.comm.AllReduceScalar(loss) / float64(w.p)
}

// precondition turns the averaged gradients into the second-order step
// direction: curvature refresh on update iterations, preconditioning, and
// the KL trust-region clip against the unpreconditioned gradients.
func (w *worker) precondition(isUpdate bool, lr float64) {
	if isUpdate {
		w.forceUpdate = false
		w.pre.Update()
	}
	for i, prm := range w.params {
		w.raw[i].CopyFrom(prm.Grad)
	}
	w.pre.Precondition()
	applyKLClip(w.params, w.raw, lr)
}

// evaluate (rank 0) closes the epoch's statistics: the test metric, the
// running best and time-to-target, the progress hook.
func (w *worker) evaluate(epoch int, meanLoss float64) {
	cfg, res := &w.job.Config, w.res
	stat := EpochStat{Epoch: epoch, TrainLoss: meanLoss, Elapsed: time.Since(w.start)}
	endEval := telemetry.Span("evaluate", w.rank, epochLabel(epoch))
	stat.Metric = Evaluate(w.net, w.job.Test, w.job.Task)
	endEval()
	telemetry.SetGauge(telemetry.MetricTrainLoss, stat.TrainLoss)
	telemetry.SetGauge(telemetry.MetricTestMetric, stat.Metric)
	res.Stats = append(res.Stats, stat)
	if stat.Metric > res.Best {
		res.Best = stat.Metric
	}
	if w.job.Target > 0 && res.TimeToTarget == 0 && stat.Metric >= w.job.Target {
		res.TimeToTarget = stat.Elapsed
	}
	res.FinalLoss = stat.TrainLoss
	if cfg.OnEpoch != nil {
		cfg.OnEpoch(stat)
	}
}

// checkpoint is a collective: every rank contributes its section bundle,
// rank 0 gathers them and atomically publishes the snapshot. Failures are
// counted and tolerated; a missed checkpoint costs recovery granularity,
// not the run.
func (w *worker) checkpoint(epoch int) {
	ranks := gatherRankSections(w.comm, ckpt.EncodeSections(w.savers...))
	if w.res == nil {
		return
	}
	if _, err := w.ckpts.mgr.Save(&ckpt.Snapshot{
		Epoch:   epoch,
		Step:    w.step,
		P:       w.p,
		Trainer: ckpt.EncodeSections((*loopState)(w), w.net, w.it),
		Ranks:   ranks,
	}); err != nil {
		telemetry.IncCounter(telemetry.MetricCkptErrors, 1)
	}
}

// agreeToStop all-reduces one rank's stop observation so every replica
// takes the same branch: a cancellation racing between two ranks' checks,
// or a decision only rank 0 can make, can never desynchronize the
// collective sequence.
func (w *worker) agreeToStop(local bool) bool {
	var flag float64
	if local {
		flag = 1
	}
	return w.comm.AllReduceScalar(flag) > 0
}

// cancelRequested is this rank's local, non-blocking look at the cancel
// channel.
func (w *worker) cancelRequested() bool {
	select {
	case <-w.cancel:
		return true
	default:
		return false
	}
}

// outOfPatience updates rank 0's early-stopping bookkeeping with the epoch
// just recorded and reports whether Patience epochs have passed without
// improvement; other ranks have no metric and report false.
func (w *worker) outOfPatience() bool {
	if w.res == nil {
		return false
	}
	if cur := w.res.Stats[len(w.res.Stats)-1].Metric; cur > w.bestMetric+1e-12 {
		w.bestMetric, w.stale = cur, 0
	} else {
		w.stale++
	}
	return w.stale >= w.job.Config.Patience
}

// gatherRankSections collects every rank's encoded section bundle on rank
// 0, which writes the file; the others get nil. The gather deliberately
// bypasses any chaos wrapper — checkpoint trafficking is control plane;
// a bit-flip injector corrupting the payload before the CRC is computed
// would bake the corruption into a "valid" snapshot.
func gatherRankSections(comm dist.Comm, local []byte) [][]byte {
	if g, ok := dist.AsByteGatherer(comm); ok {
		return g.GatherBytes(local)
	}
	return [][]byte{local}
}

// allFinite reports whether the reduced loss and every gradient entry are
// finite.
func allFinite(loss float64, params []*nn.Param) bool {
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return false
	}
	for _, p := range params {
		if !p.Grad.IsFinite() {
			return false
		}
	}
	return true
}

// klClip is κ, the KL trust-region bound KAISA and the HyLo artifact use.
const klClip = 0.001

// applyKLClip rescales the preconditioned gradients by
// ν = min(1, sqrt(κ / (lr² · Σ ĝᵀg))) so that the implied KL step stays
// within κ — the trust-region heuristic every production KFAC-family
// implementation (including KAISA and the HyLo artifact) applies to keep
// natural-gradient steps stable.
func applyKLClip(params []*nn.Param, raw []*mat.Dense, lr float64) {
	var dot float64
	for i, prm := range params {
		pg, rg := prm.Grad.Data(), raw[i].Data()
		for j := range pg {
			dot += float64(pg[j] * rg[j])
		}
	}
	vFOV := lr * lr * dot
	if vFOV <= klClip || vFOV <= 0 {
		return
	}
	nu := math.Sqrt(klClip / vFOV)
	for _, prm := range params {
		prm.Grad.Scale(nu)
	}
}
