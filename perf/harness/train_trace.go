package harness

import (
	"fmt"
	"math"
	"path/filepath"

	distnet "repro/internal/dist/net"
	"repro/internal/mat"
)

// RunOpts are the settings of one run that are not part of a workload.
type RunOpts struct {
	Seed    uint64
	Seconds float64
	// Procs is GOMAXPROCS and the scheduler's workers. The contract's runs
	// use 1: two busy threads measure how much of its second vCPU the host
	// gave the machine (perf/README.md, "Why one processor").
	Procs int
	// WorkDir is an existing scratch directory; TraceDir, when set,
	// receives <workload>.trace.json.
	WorkDir, TraceDir string
	// Smoke selects the workload's toy size; microbenches then repeat once.
	Smoke bool
}

// reps is how often a microbench repeats in this run.
func (o RunOpts) reps() int {
	if o.Smoke {
		return 1
	}
	return microReps
}

const (
	// loopShare is the part of --seconds the traced step loop may use; the
	// rest of a traced run is its end-to-end operation and microbenches.
	loopShare = 0.4
	// untracedEvery leaves every third block of the loop unrecorded, for
	// the traced-versus-untraced comparison.
	untracedEvery = 3
	// parityMaxSteps bounds the undecorated reference loop.
	parityMaxSteps = 3
)

// planLoop sizes the step loop from the end-to-end operation's ms/step so
// that it fits its share of the run: whole groups of untracedEvery blocks,
// at least one group.
func planLoop(spec TrainSpec, seconds, stepMs float64) loopPlan {
	freq := spec.UpdateFreq
	group := untracedEvery * freq
	groups := int(loopShare * seconds * 1e3 / stepMs / float64(group))
	groups = max(1, min(groups, 8))
	return loopPlan{
		warmup:        (2 + freq - 1) / freq * freq,
		steps:         groups * group,
		untracedEvery: untracedEvery,
	}
}

// RunTrainTrace is the traced run of a training workload. It runs one long
// end-to-end operation (for the counts, the time to target, and the ms/step
// the phases are held against), then the benchmark-owned step loop on every rank with the
// rank's Comm decorated, then the measurements that need the loop's live
// state, then the kernel and control-plane microbenches.
func RunTrainTrace(spec TrainSpec, o RunOpts) (*Result, error) {
	return runTrainTrace(spec, o, false)
}

// runTrainTrace is RunTrainTrace; flipBit makes the decorator corrupt one
// bit, which the self-test uses to show that the parity check catches it.
func runTrainTrace(spec TrainSpec, o RunOpts, flipBit bool) (*Result, error) {
	r := newResult(spec.Name, true)
	op, err := runOp(spec, o.Seed, spec.TraceEpochs, filepath.Join(o.WorkDir, "op"), true)
	if err != nil {
		return nil, err
	}
	r.Attempted++
	checkOp(r, spec, op)
	if op.res.TimeToTarget == 0 {
		r.Fail("%s: target accuracy %.2f never reached in %d epochs", spec.Name, spec.Target, spec.TraceEpochs)
	}
	timedSteps := float64((spec.TraceEpochs - 1) * spec.StepsPerEpoch())
	e2eStepMs := float64(op.timed) / 1e6 / timedSteps
	recordOpCounts(r, spec, op, timedSteps)

	t, err := newTask(spec, o.Seed)
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(spec, o.Seed, "")
	if err != nil {
		return nil, err
	}
	plan := planLoop(spec, o.Seconds, e2eStepMs)
	tr := NewTracer(spec.Ranks)
	var teleOverhead float64
	out, err := runLoop(cl, t, tr, plan, flipBit, func(l *rankLoop) {
		afterLoop(r, l, o.Procs, o.reps())
		if spec.TelemetryAB {
			if v := telemetryOverhead(l, 2*o.reps()); l.comm.ID() == 0 {
				teleOverhead = v
			}
		}
	})
	cl.close()
	if err != nil {
		return nil, err
	}
	r.Set("telemetry.enabled_overhead_pct", teleOverhead, 2*o.reps())
	if spec.Transport == TCP {
		r.Set("dist_net.rendezvous_ms", float64(cl.rendezvous)/1e6, 1)
	}
	spanMetrics(r, spec, tr, plan, out, e2eStepMs)

	if err := checkLoopParity(r, spec, o.Seed, plan, out); err != nil {
		return nil, err
	}
	if spec.Transport == TCP {
		if err := tcpExtras(r, spec, o, op); err != nil {
			return nil, err
		}
	}
	kernelBenches(r, o.reps())
	controlBenches(r, o.reps())
	if o.TraceDir != "" {
		if err := tr.WriteChrome(filepath.Join(o.TraceDir, spec.Name+".trace.json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// recordOpCounts records what the end-to-end operation alone can tell: the
// exact-repeat counts and the per-mode epoch times.
func recordOpCounts(r *Result, spec TrainSpec, op *opResult, timedSteps float64) {
	r.Set("train.steps", float64(op.steps(spec)), 1)
	r.Set("train.time_to_target_s", op.res.TimeToTarget.Seconds(), 1)
	r.Set("train.epochs_to_target", float64(op.epochsToTarget(spec.Target)), 1)
	r.Set("train.final_loss", op.res.FinalLoss, 1)
	r.Set("train.alloc_kb_per_step", float64(op.allocBytes)/1024/timedSteps, int(timedSteps))
	var kid, kis []float64
	nKID, nKIS := 0, 0
	for e, mode := range op.res.EpochModes {
		isKID := mode == "KID"
		if isKID {
			nKID++
		} else {
			nKIS++
		}
		if e == 0 || e-1 >= len(op.epochMs) {
			continue // the warm-up epoch is counted, not timed
		}
		if isKID {
			kid = append(kid, op.epochMs[e-1])
		} else {
			kis = append(kis, op.epochMs[e-1])
		}
	}
	r.Set("train.kid_epochs", float64(nKID), 1)
	r.Set("train.kis_epochs", float64(nKIS), 1)
	r.Set("train.kid_epoch_ms", Median(kid), len(kid))
	r.Set("train.kis_epoch_ms", Median(kis), len(kis))
}

// perStep sums, for every traced measured step, the durations of the
// rank's spans of one name, and returns the per-step sums of the steps
// that had any.
func perStep(spans []Span, durs []int64, name string, keep func(step int) bool) []float64 {
	sum := map[int]int64{}
	for i, s := range spans {
		if s.Name == name && keep(s.Step) {
			sum[s.Step] += durs[i]
		}
	}
	out := make([]float64, 0, len(sum))
	for _, v := range sum {
		out = append(out, float64(v)/1e6)
	}
	return out
}

// spanMetrics derives the per-layer metrics of the step loop from rank 0's
// spans (and every rank's, for the skew).
func spanMetrics(r *Result, spec TrainSpec, tr *Tracer, plan loopPlan, out *loopOut, e2eStepMs float64) {
	keep := func(step int) bool { return step >= plan.warmup }
	spans := tr.Rank(0).Spans()
	durs := make([]int64, len(spans))
	for i, s := range spans {
		durs[i] = s.Dur()
	}
	self := SelfTimes(spans)
	p50 := func(metric, span string, scale float64, d []int64) {
		xs := perStep(spans, d, span, keep)
		r.Set(metric, Median(xs)*scale, len(xs))
	}
	pre := spec.preLayer()
	p50("train.step_ms", spanStep, 1, durs)
	p50("data.batch_us", spanData, 1e3, durs)
	p50("nn.forward_ms", spanForward, 1, durs)
	p50("nn.backward_ms", spanBackward, 1, durs)
	p50("dist.allreduce_grad_ms", spanGradReduce, 1, durs)
	p50(pre+".update_ms", spanUpdate, 1, durs)
	p50(pre+".update_self_ms", spanUpdate, 1, self)
	p50(pre+".precondition_ms", spanPrecondition, 1, durs)
	p50("train.other_ms", spanOther, 1, durs)
	p50("opt.step_us", spanOptStep, 1e3, durs)
	p50("dist.allgather_ms", spanAllGather, 1, durs)
	p50("dist.broadcast_ms", spanBroadcast, 1, durs)

	var scalarUs []float64
	for i, s := range spans {
		if s.Name == spanAllReduceScalar && keep(s.Step) {
			scalarUs = append(scalarUs, float64(durs[i])/1e3)
		}
	}
	r.Set("dist.allreduce_scalar_us", Median(scalarUs), len(scalarUs))

	steps := float64(len(out.stepNs))
	r.Set("dist.calls_per_step", float64(out.calls)/steps, len(out.stepNs))
	r.Set("dist.bytes_per_step", float64(out.bytes)/steps, len(out.stepNs))
	if spec.Transport == TCP {
		r.Set("dist_net.coord_rx_bytes_per_step", float64(out.coordRx)/steps, len(out.stepNs))
		r.Set("dist_net.coord_tx_bytes_per_step", float64(out.coordTx)/steps, len(out.stepNs))
		if out.bytes > 0 {
			r.Set("dist_net.wire_overhead_ratio", float64(out.coordRx)/float64(out.bytes), 1)
		}
	}
	r.Set("mat.pool_miss_per_step", float64(out.poolMisses)/steps, len(out.stepNs))

	// Compute per step and rank: the step minus the time inside
	// collectives. The share is rank 0's; the skew is across ranks.
	compute := make([]map[int]float64, tr.Ranks())
	var commNs, stepNs float64
	for rank := 0; rank < tr.Ranks(); rank++ {
		compute[rank] = map[int]float64{}
		rs := tr.Rank(rank).Spans()
		for _, st := range stepCommCover(rs) {
			if !keep(st.step) {
				continue
			}
			compute[rank][st.step] = float64(st.dur-st.comm) / 1e6
			if rank == 0 {
				commNs += float64(st.comm)
				stepNs += float64(st.dur)
			}
		}
	}
	if stepNs > 0 {
		r.Set("dist.comm_share_pct", 100*commNs/stepNs, len(compute[0]))
	}
	var skew []float64
	for step, c0 := range compute[0] {
		lo, hi := c0, c0
		for rank := 1; rank < tr.Ranks(); rank++ {
			c := compute[rank][step]
			lo, hi = math.Min(lo, c), math.Max(hi, c)
		}
		skew = append(skew, hi-lo)
	}
	if tr.Ranks() > 1 {
		r.Set("dist.rank_skew_ms", Median(skew), len(skew))
	}

	// Traced against untraced blocks of the same loop, by the plain clock.
	var tracedMs, untracedMs []float64
	for b := 0; b+spec.UpdateFreq <= len(out.stepNs); b += spec.UpdateFreq {
		var ns int64
		for _, v := range out.stepNs[b : b+spec.UpdateFreq] {
			ns += v
		}
		if out.isTraced[b] {
			tracedMs = append(tracedMs, float64(ns)/1e6)
		} else {
			untracedMs = append(untracedMs, float64(ns)/1e6)
		}
	}
	if m := Median(untracedMs); m > 0 {
		r.Set("harness.trace_overhead_pct", 100*(Median(tracedMs)/m-1), len(tracedMs))
	}

	// What the end-to-end ms/step leaves unexplained: mean traced step
	// plus the per-epoch evaluation spread over the epoch's steps.
	var meanStep float64
	if xs := perStep(spans, durs, spanStep, keep); len(xs) > 0 {
		meanStep = Sum(xs) / float64(len(xs))
	}
	explained := meanStep + r.Samples["train.eval_ms"].Value/float64(spec.StepsPerEpoch())
	r.Set("train.unattributed_pct", 100*(e2eStepMs-explained)/e2eStepMs, 1)
}

// stepCover is one step's duration and the part of it its collectives cover.
type stepCover struct {
	step      int
	dur, comm int64
}

// stepCommCover returns, for each step span of one rank, how much of it the
// rank's collective spans cover, overlapping collectives counted once.
func stepCommCover(spans []Span) []stepCover {
	byStep := map[int][][2]int64{}
	for _, s := range spans {
		if isCommSpan(s.Name) {
			byStep[s.Step] = append(byStep[s.Step], [2]int64{s.Start, s.End})
		}
	}
	var out []stepCover
	for _, s := range spans {
		if s.Name != spanStep {
			continue
		}
		var iv [][2]int64
		for _, v := range byStep[s.Step] {
			lo, hi := max(v[0], s.Start), min(v[1], s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out = append(out, stepCover{step: s.Step, dur: s.Dur(), comm: coveredLen(iv)})
	}
	return out
}

// checkLoopParity re-runs the loop's first steps with nothing of the
// benchmark in the way — no tracer, no decorator, and for the TCP workload
// on the in-process cluster — and requires the same losses bit for bit. It
// is what makes a decorator that alters a value, or a transport that
// rounds differently, fail the run.
func checkLoopParity(r *Result, spec TrainSpec, seed uint64, plan loopPlan, got *loopOut) error {
	ref := spec
	if ref.Transport == TCP {
		ref.Transport = InProc
	}
	t, err := newTask(ref, seed)
	if err != nil {
		return err
	}
	cl, err := newCluster(ref, seed, "")
	if err != nil {
		return err
	}
	defer cl.close()
	n := min(parityMaxSteps, plan.warmup+plan.steps)
	want, err := runLoop(cl, t, nil, loopPlan{steps: n}, false, nil)
	if err != nil {
		return err
	}
	r.Attempted++
	for i := 0; i < n; i++ {
		if math.Float64bits(want.losses[i]) != math.Float64bits(got.losses[i]) {
			r.Fail("%s: step %d loss %x through the decorator, %x without it", spec.Name, i,
				math.Float64bits(got.losses[i]), math.Float64bits(want.losses[i]))
			break
		}
	}
	return nil
}

// tcpExtras measures what only the TCP workload has: the wire tax against
// the in-process cluster, a checkpoint the run wrote, and one large
// all-reduce under each topology.
func tcpExtras(r *Result, spec TrainSpec, o RunOpts, op *opResult) error {
	ref := spec
	ref.Transport = InProc
	refEpochs := min(spec.TraceEpochs, 1+parityEpochs)
	refOp, err := runOp(ref, o.Seed, refEpochs, "", false)
	if err != nil {
		return err
	}
	if refEpochs > 1 {
		tcpRate := float64(spec.TraceEpochs-1) / op.timed.Seconds()
		refRate := float64(refEpochs-1) / refOp.timed.Seconds()
		r.Set("dist_net.wire_tax_pct", 100*(1-tcpRate/refRate), 1)
	}
	if err := ckptBench(r, op.ckptDir, o.WorkDir, o.reps()); err != nil {
		return err
	}
	const mib = 1 << 20 / 8 // float64s in 1 MiB
	for _, topo := range []string{distnet.TopologyHub, distnet.TopologyTree} {
		us, err := netAllReduceUs(spec, o.Seed, topo, mib, 10)
		if err != nil {
			return fmt.Errorf("all-reduce over %s: %w", topo, err)
		}
		r.Set("dist_net.allreduce_"+topo+"_us", us, 10)
	}
	return nil
}

// poolMisses reads mat's cumulative pool-miss counter.
func poolMisses() int64 {
	_, misses := mat.PoolStats()
	return misses
}
