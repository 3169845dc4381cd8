package harness

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/train"
)

// Span names of the step loop's phases. Each is a child of the step span.
const (
	spanStep         = "step"
	spanData         = "data"
	spanForward      = "forward"
	spanBackward     = "backward"
	spanGradReduce   = "grad_allreduce"
	spanUpdate       = "update"
	spanPrecondition = "precondition"
	spanOther        = "other"
	spanOptStep      = "opt_step"
)

// klClip is the trainer's default KL trust-region bound (train.Config.KLClip
// of zero selects it).
const klClip = 0.001

// loopPlan says how many steps the loop runs and which of them record.
type loopPlan struct {
	warmup int // steps before measurement; a multiple of UpdateFreq
	steps  int // measured steps after warm-up
	// untracedEvery switches recording off for every n-th block of
	// UpdateFreq steps, so traced and untraced blocks of the same loop can
	// be compared; 0 records every step.
	untracedEvery int
}

// traced reports whether measured step i records spans.
func (p loopPlan) traced(i, freq int) bool {
	return p.untracedEvery == 0 || (i/freq)%p.untracedEvery != p.untracedEvery-1
}

// rankLoop is one rank's live training state inside the benchmark-owned
// step loop: the pieces train's runWorker assembles, built the same way.
type rankLoop struct {
	t      *task
	comm   dist.Comm // what the loop and the preconditioner call
	rt     *RankTrace
	net    *nn.Network
	params []*nn.Param
	sgd    *opt.SGD
	pre    opt.Preconditioner
	it     *data.BatchIterator
	step   int
	raw    []*mat.Dense
}

// newRankLoop builds a rank's replica exactly as train's runWorker does:
// same seeds for weights, batch order and sampling, same optimizer. comm is
// handed to the preconditioner factory, so a TracedComm sees every
// collective the preconditioner issues.
func newRankLoop(t *task, comm dist.Comm, rt *RankTrace) *rankLoop {
	seed := t.cfg.Seed
	l := &rankLoop{t: t, comm: comm, rt: rt}
	l.net = t.build(mat.NewRNG(seed))
	batchRNG := mat.NewRNG(seed + 1)
	sampleRNG := mat.NewRNG(seed + 17*uint64(comm.ID()) + 2)
	l.params = l.net.Params()
	l.sgd = opt.NewSGD(l.params, t.cfg.LR.Base, t.cfg.Momentum, t.cfg.WeightDecay)
	l.pre = t.makePre(l.net, comm, nil, sampleRNG)
	l.it = data.NewBatchIterator(batchRNG, t.train.Len(), t.spec.GlobalBatch)
	return l
}

// oneStep runs one training step and returns its loss: the trainer's step
// without its fault-tolerance branches, every call into a layer inside a
// span.
func (l *rankLoop) oneStep() float64 {
	spec, rt := l.t.spec, l.rt
	p, rank := l.comm.Size(), l.comm.ID()
	if l.step%spec.StepsPerEpoch() == 0 {
		if ea, ok := l.pre.(train.EpochAware); ok {
			ea.OnEpochStart(l.step/spec.StepsPerEpoch(), false)
		}
	}
	rt.SetStep(l.step)
	stepSpan := rt.Begin(spanStep)

	s := rt.Begin(spanData)
	idx := l.it.Next()
	per := len(idx) / p
	x, tgt := l.t.train.Batch(idx[rank*per : (rank+1)*per])
	rt.End(s)

	isUpdate := l.step%spec.UpdateFreq == 0
	l.net.SetCapture(isUpdate)
	l.net.ZeroGrad()
	s = rt.Begin(spanForward)
	out := l.net.Forward(x, true)
	loss, g := nn.SoftmaxCrossEntropy{}.Forward(out, tgt)
	rt.End(s)

	s = rt.Begin(spanBackward)
	l.net.Backward(g)
	rt.End(s)

	if p > 1 {
		s = rt.Begin(spanGradReduce)
		for _, prm := range l.params {
			avg := l.comm.AllReduceMat(prm.Grad)
			avg.Scale(1 / float64(p))
			prm.Grad.CopyFrom(avg)
		}
		loss = l.comm.AllReduceScalar(loss) / float64(p)
		rt.End(s)
	}

	if isUpdate {
		s = rt.Begin(spanUpdate)
		l.pre.Update()
		rt.End(s)
	}

	s = rt.Begin(spanOther)
	if l.raw == nil {
		l.raw = make([]*mat.Dense, len(l.params))
	}
	for i, prm := range l.params {
		l.raw[i] = prm.Grad.Clone()
	}
	rt.End(s)

	s = rt.Begin(spanPrecondition)
	l.pre.Precondition()
	rt.End(s)

	s = rt.Begin(spanOther)
	applyKLClip(l.params, l.raw, l.sgd.LR(), klClip)
	rt.End(s)

	s = rt.Begin(spanOptStep)
	l.sgd.Step()
	rt.End(s)

	rt.End(stepSpan)
	l.step++
	return loss
}

// applyKLClip rescales the preconditioned gradients so that lr²·Σ ĝᵀg stays
// within kappa, as the trainer does after every Precondition.
func applyKLClip(params []*nn.Param, raw []*mat.Dense, lr, kappa float64) {
	var dot float64
	for i, prm := range params {
		pg, rg := prm.Grad.Data(), raw[i].Data()
		for j := range pg {
			dot += pg[j] * rg[j]
		}
	}
	v := lr * lr * dot
	if v <= kappa || v <= 0 {
		return
	}
	nu := math.Sqrt(kappa / v)
	for _, prm := range params {
		prm.Grad.Scale(nu)
	}
}

// loopOut is what rank 0 of a step loop hands back.
type loopOut struct {
	losses []float64 // one per step, warm-up included
	// stepNs and isTraced describe the measured steps, timed by a plain
	// clock outside the tracer.
	stepNs   []int64
	isTraced []bool
	// calls and bytes are the decorator's counts over the measured steps.
	calls, bytes int64
	// coordRx and coordTx are the coordinator's wire bytes over the
	// measured steps (TCP only).
	coordRx, coordTx int64
	// poolMisses is mat's pool-miss count over the measured steps, all
	// ranks together.
	poolMisses int64
}

// cluster runs fn once per rank over the workload's transport and waits
// for every rank. netBytes reads the coordinator's wire counters (zero off
// TCP). rendezvous is how long bringing the ranks up took.
type cluster struct {
	run        func(fn func(comm dist.Comm)) error
	netBytes   func() (rx, tx int64)
	rendezvous time.Duration
	close      func()
}

// newCluster brings up the ranks of a workload: dist.Local, the in-process
// cluster, or one distnet.Proc per rank over loopback.
func newCluster(spec TrainSpec, seed uint64, topology string) (*cluster, error) {
	noBytes := func() (int64, int64) { return 0, 0 }
	switch spec.Transport {
	case Local:
		return &cluster{
			run:      func(fn func(dist.Comm)) error { fn(dist.Local()); return nil },
			netBytes: noBytes, close: func() {},
		}, nil
	case InProc:
		c := dist.NewCluster(spec.Ranks)
		return &cluster{
			run: func(fn func(dist.Comm)) error {
				if errs := c.RunWithRecovery(func(w *dist.Worker) { fn(w) }); len(errs) > 0 {
					return fmt.Errorf("in-process cluster: %v", errs[0])
				}
				return nil
			},
			netBytes: noBytes, close: func() {},
		}, nil
	}
	t0 := time.Now()
	procs, err := startProcs(spec.Ranks, distnet.Config{
		ConfigDigest: distnet.ConfigDigestOf(spec.Name, fmt.Sprint(seed)), Seed: seed, Topology: topology})
	if err != nil {
		return nil, err
	}
	return &cluster{
		rendezvous: time.Since(t0),
		run: func(fn func(dist.Comm)) error {
			errs := make([][]error, len(procs))
			var wg sync.WaitGroup
			for i, p := range procs {
				wg.Add(1)
				go func(i int, p *distnet.Proc) {
					defer wg.Done()
					errs[i] = p.Run(fn)
				}(i, p)
			}
			wg.Wait()
			for _, e := range errs {
				if len(e) > 0 {
					return fmt.Errorf("tcp cluster: %v", e[0])
				}
			}
			return nil
		},
		netBytes: procs[0].NetBytes,
		close:    func() { closeProcs(procs) },
	}, nil
}

// runLoop runs the step loop on every rank of cl. With a tracer each rank's
// Comm is decorated and spans are recorded; with tr nil the loop is the
// plain reference the parity check compares against. after, when non-nil,
// runs on every rank once the loop has ended, on the rank's live state.
func runLoop(cl *cluster, t *task, tr *Tracer, plan loopPlan, flipBit bool,
	after func(l *rankLoop)) (*loopOut, error) {

	out := &loopOut{}
	freq := t.spec.UpdateFreq
	err := cl.run(func(comm dist.Comm) {
		rank := comm.ID()
		rt := &RankTrace{} // recording off: Begin/End/Record are no-ops
		if tr != nil {
			rt = tr.Rank(rank)
			comm = Decorate(comm, rt)
			if tc, ok := comm.(*TracedComm); ok {
				tc.flipBit = flipBit
			}
		}
		l := newRankLoop(t, comm, rt)
		var calls0, bytes0, rx0, tx0, miss0 int64
		for i := 0; i < plan.warmup+plan.steps; i++ {
			m := i - plan.warmup
			if m == 0 {
				if tc, ok := comm.(*TracedComm); ok {
					calls0, bytes0 = tc.Counts()
				}
				if rank == 0 {
					rx0, tx0 = cl.netBytes()
					miss0 = poolMisses()
				}
			}
			rt.SetOn(tr != nil && m >= 0 && plan.traced(m, freq))
			t0 := time.Now()
			loss := l.oneStep()
			if rank == 0 {
				out.losses = append(out.losses, loss)
				if m >= 0 {
					out.stepNs = append(out.stepNs, int64(time.Since(t0)))
					out.isTraced = append(out.isTraced, plan.traced(m, freq))
				}
			}
		}
		if rank == 0 {
			if tc, ok := comm.(*TracedComm); ok {
				c, b := tc.Counts()
				out.calls, out.bytes = c-calls0, b-bytes0
			}
			rx, tx := cl.netBytes()
			out.coordRx, out.coordTx = rx-rx0, tx-tx0
			out.poolMisses = poolMisses() - miss0
		}
		rt.SetOn(false)
		if after != nil {
			after(l)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
