package sched_test

// Parity suite for the layer-parallel scheduler: every optimizer's Update +
// Precondition must produce BIT-IDENTICAL gradients whether the pipeline
// runs sequentially (-sched-workers=1, the legacy inline path) or
// layer-parallel — for single-process and simulated-cluster runs, and with
// chaos fault injection on the collectives. The external test package
// avoids an import cycle (the optimizers themselves import sched).

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kbfgs"
	"repro/internal/kfac"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/numerics"
	"repro/internal/sched"
	"repro/internal/sngd"
)

// setWorkers switches the process-wide worker count for one comparison leg
// and restores the previous value when the test ends.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	prev := sched.Workers()
	sched.SetWorkers(n)
	t.Cleanup(func() { sched.SetWorkers(prev) })
}

// precon is the slice of the opt.Preconditioner surface the parity runs
// exercise.
type precon interface {
	Update()
	Precondition()
}

// optBuilder constructs one optimizer over a captured network. Builders
// must be deterministic: the same net and rng seed yield the same state.
type optBuilder func(net *nn.Network, comm dist.Comm) precon

// buildNet replicates the data-parallel setup of the distributed trainer
// for one shard: identical weights on every rank (same init seed),
// rank-dependent data, captures and gradients populated.
func buildNet(rank, mPer, in, hid, out int) *nn.Network {
	rng := mat.NewRNG(400)
	net := nn.NewNetwork(nn.Vec(in), rng,
		nn.NewLinear(hid), nn.NewReLU(),
		nn.NewLinear(hid), nn.NewReLU(),
		nn.NewLinear(out))
	net.SetCapture(true)
	drng := mat.NewRNG(500 + 31*uint64(rank))
	x := mat.RandN(drng, mPer, in, 1)
	labels := make([]int, mPer)
	for i := range labels {
		labels[i] = (i + rank) % out
	}
	logits := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: labels})
	net.ZeroGrad()
	net.Backward(g)
	return net
}

// gradBits snapshots every kernel-layer gradient as raw float bits, so the
// comparison is exact equality — not a tolerance.
func gradBits(net *nn.Network) [][]uint64 {
	layers := net.KernelLayers()
	out := make([][]uint64, len(layers))
	for i, l := range layers {
		d := l.Weight().Grad.Data()
		bits := make([]uint64, len(d))
		for j, v := range d {
			bits[j] = math.Float64bits(v)
		}
		out[i] = bits
	}
	return out
}

// buildDegenerateNet is buildNet with every sample of the local batch
// identical (same row, same label): the captured Gram kernel is exactly
// rank 1, the worst case for a sketched interpolative decomposition.
func buildDegenerateNet(rank, mPer, in, hid, out int) *nn.Network {
	rng := mat.NewRNG(400)
	net := nn.NewNetwork(nn.Vec(in), rng,
		nn.NewLinear(hid), nn.NewReLU(),
		nn.NewLinear(hid), nn.NewReLU(),
		nn.NewLinear(out))
	net.SetCapture(true)
	drng := mat.NewRNG(500 + 31*uint64(rank))
	row := mat.RandN(drng, 1, in, 1)
	x := mat.NewDense(mPer, in)
	for i := 0; i < mPer; i++ {
		copy(x.Row(i), row.Row(0))
	}
	labels := make([]int, mPer) // all the same class
	logits := net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy{}.Forward(logits, nn.Target{Labels: labels})
	net.ZeroGrad()
	net.Backward(g)
	return net
}

// runGrads executes one optimizer pass on p ranks and returns the
// preconditioned gradients as [rank][layer][elem] bits. wrap, when non-nil,
// layers chaos/validation Comms over each cluster worker.
func runGrads(p int, build optBuilder, wrap func(*dist.Worker) dist.Comm) [][][]uint64 {
	return runGradsOn(p, buildNet, build, wrap)
}

// runGradsOn is runGrads with an explicit per-rank network builder, so
// parity legs can run over pathological batches as well as healthy ones.
func runGradsOn(p int, mknet func(rank, mPer, in, hid, out int) *nn.Network,
	build optBuilder, wrap func(*dist.Worker) dist.Comm) [][][]uint64 {
	const mPer, in, hid, out = 8, 5, 6, 3
	res := make([][][]uint64, p)
	if p == 1 {
		net := mknet(0, mPer, in, hid, out)
		o := build(net, dist.Local())
		o.Update()
		o.Precondition()
		res[0] = gradBits(net)
		return res
	}
	cluster := dist.NewCluster(p)
	cluster.Run(func(w *dist.Worker) {
		comm := dist.Comm(w)
		if wrap != nil {
			comm = wrap(w)
		}
		net := mknet(w.Rank, mPer, in, hid, out)
		o := build(net, comm)
		o.Update()
		o.Precondition()
		res[w.Rank] = gradBits(net)
	})
	return res
}

func compareBits(t *testing.T, seq, par [][][]uint64) {
	t.Helper()
	for r := range seq {
		if len(seq[r]) != len(par[r]) {
			t.Fatalf("rank %d: layer counts differ (%d vs %d)", r, len(seq[r]), len(par[r]))
		}
		for l := range seq[r] {
			for j := range seq[r][l] {
				if seq[r][l][j] != par[r][l][j] {
					t.Fatalf("rank %d layer %d elem %d: sequential %016x vs parallel %016x",
						r, l, j, seq[r][l][j], par[r][l][j])
				}
			}
		}
	}
}

func hyloBuilder(mode core.Mode) optBuilder {
	return func(net *nn.Network, comm dist.Comm) precon {
		h := core.NewHyLo(net, 0.3, 0.5, comm, nil, mat.NewRNG(77))
		h.Policy = core.FixedSwitch{Mode: mode}
		h.OnEpochStart(0, false)
		return h
	}
}

// sketchBuilder is hyloBuilder pinned to KID mode with the sketched
// randomized-ID fast path enabled.
func sketchBuilder(sk core.Sketch) optBuilder {
	return func(net *nn.Network, comm dist.Comm) precon {
		h := core.NewHyLo(net, 0.3, 0.5, comm, nil, mat.NewRNG(79))
		h.Policy = core.FixedSwitch{Mode: core.ModeKID}
		h.Sketch = sk
		h.Oversample = 4
		h.OnEpochStart(0, false)
		return h
	}
}

func parityCases() []struct {
	name  string
	build optBuilder
} {
	return []struct {
		name  string
		build optBuilder
	}{
		{"hylo-kid", hyloBuilder(core.ModeKID)},
		{"hylo-kid-randomized", func(net *nn.Network, comm dist.Comm) precon {
			h := core.NewHyLo(net, 0.3, 0.5, comm, nil, mat.NewRNG(78))
			h.Policy = core.FixedSwitch{Mode: core.ModeKID}
			h.Sketch = core.SketchGauss
			h.OnEpochStart(0, false)
			return h
		}},
		{"hylo-kid-sketch-gauss", sketchBuilder(core.SketchGauss)},
		{"hylo-kid-sketch-srht", sketchBuilder(core.SketchSRHT)},
		{"hylo-kis", hyloBuilder(core.ModeKIS)},
		{"kfac", func(net *nn.Network, comm dist.Comm) precon {
			return kfac.NewKFAC(net, 0.3, comm, nil)
		}},
		{"sngd", func(net *nn.Network, comm dist.Comm) precon {
			return sngd.New(net, 0.3, comm, nil)
		}},
	}
}

// TestSchedParity: layer-parallel execution must be bit-identical to the
// sequential path for every distributed optimizer, single-process and on a
// 4-worker simulated cluster.
func TestSchedParity(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, c := range parityCases() {
			c := c
			p := p
			t.Run(c.name+"/p="+string(rune('0'+p)), func(t *testing.T) {
				setWorkers(t, 1)
				seq := runGrads(p, c.build, nil)
				setWorkers(t, 4)
				par := runGrads(p, c.build, nil)
				compareBits(t, seq, par)
			})
		}
	}
}

// TestSchedParityKBFGS covers the comm-free quasi-Newton baseline: two
// update/precondition rounds (the first only snapshots, so curvature pairs
// exist by the second) must match bitwise across worker counts.
func TestSchedParityKBFGS(t *testing.T) {
	run := func() [][]uint64 {
		net := buildNet(0, 8, 5, 6, 3)
		k := kbfgs.NewKBFGSL(net, 0.1, 4)
		k.Update()
		// Deterministically move the weights so the second harvest yields
		// nonzero (s, y) pairs.
		for _, l := range net.KernelLayers() {
			w := l.Weight()
			wd, gd := w.W.Data(), w.Grad.Data()
			for j := range wd {
				wd[j] -= 0.05 * gd[j]
			}
		}
		k.Update()
		k.Precondition()
		return gradBits(net)
	}
	setWorkers(t, 1)
	seq := run()
	setWorkers(t, 4)
	par := run()
	compareBits(t, [][][]uint64{seq}, [][][]uint64{par})
}

// TestSchedParityChaos repeats the cluster parity check with fault
// injection on every collective — bit-flips, stragglers, and degenerate
// gather payloads (which trip the solver degradation ladder). The same
// FaultPlan drives both legs, and chaos draws happen per collective in
// call order, so parity here proves the parallel scheduler issues the
// EXACT canonical collective sequence, not merely an equivalent one. A
// sequence validator runs underneath the injector on both legs.
func TestSchedParityChaos(t *testing.T) {
	plan := dist.FaultPlan{
		Seed:           13,
		PanicStep:      -1,
		BitFlipProb:    0.4,
		StragglerProb:  0.3,
		StragglerDelay: 50 * time.Microsecond,
		DegenerateKind: "dup",
		DegenerateProb: 0.15,
	}
	for _, c := range parityCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func() [][][]uint64 {
				chk := dist.NewSeqChecker(func(msg string) { t.Error(msg) })
				return runGrads(4, c.build, func(w *dist.Worker) dist.Comm {
					return dist.NewFaultInjector(chk.Check(w), plan)
				})
			}
			setWorkers(t, 1)
			seq := run()
			setWorkers(t, 4)
			par := run()
			compareBits(t, seq, par)
		})
	}
}

// TestSchedParitySketchFallback forces the sketched KID onto a degenerate
// (exactly rank-1) batch on every rank: the condition guard must trip, the
// ladder must land on the exact-KID rung, and the fallback must be
// collective-consistent — the sequential and layer-parallel legs, and all
// ranks within each leg, stay bit-identical even while every layer is being
// redone on the exact path.
func TestSchedParitySketchFallback(t *testing.T) {
	for _, sk := range []core.Sketch{core.SketchGauss, core.SketchSRHT} {
		sk := sk
		t.Run(sk.String(), func(t *testing.T) {
			numerics.Reset()
			defer numerics.Reset()
			build := sketchBuilder(sk)
			setWorkers(t, 1)
			seq := runGradsOn(4, buildDegenerateNet, build, nil)
			fired := numerics.Default().Snapshot().Fallbacks["hylo.kid.sketch"][numerics.RungExact]
			if fired == 0 {
				t.Fatal("degenerate batch did not trip the sketch guard")
			}
			setWorkers(t, 4)
			par := runGradsOn(4, buildDegenerateNet, build, nil)
			compareBits(t, seq, par)
			for _, rank := range seq {
				for _, layer := range rank {
					for _, bits := range layer {
						v := math.Float64frombits(bits)
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatal("fallback produced non-finite gradient")
						}
					}
				}
			}
		})
	}
}
