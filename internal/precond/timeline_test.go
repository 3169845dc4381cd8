package precond_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/kfac"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/sngd"
	"repro/internal/telemetry"
)

// capturedNet is one rank's shard of a three-kernel-layer MLP with
// captures and gradients populated (identical weights on every rank,
// rank-dependent data).
func capturedNet(rank int) *nn.Network {
	const m, in, hid, out = 8, 5, 6, 3
	net := nn.NewNetwork(nn.Vec(in), mat.NewRNG(400),
		nn.NewLinear(hid), nn.NewReLU(), nn.NewLinear(hid), nn.NewReLU(), nn.NewLinear(out))
	net.SetCapture(true)
	x := mat.RandN(mat.NewRNG(500+31*uint64(rank)), m, in, 1)
	labels := make([]int, m)
	for i := range labels {
		labels[i] = (i + rank) % out
	}
	_, g := nn.SoftmaxCrossEntropy{}.Forward(net.Forward(x, true), nn.Target{Labels: labels})
	net.ZeroGrad()
	net.Backward(g)
	return net
}

// TestTimelinePhases: one Update of every Timeline-taking backend records,
// on rank 0's Timeline, gather and broadcast once per captured layer,
// inversion once per layer rank 0 owns (layer % P), and — for the backends
// with a local factorization step — factorization once per layer; every
// rank emits the same phases as spans carrying its optimizer label.
func TestTimelinePhases(t *testing.T) {
	type updater interface{ Update() }
	type builder func(*nn.Network, dist.Comm, *dist.Timeline) updater
	hylo := func(mode core.Mode) builder {
		return func(net *nn.Network, c dist.Comm, tl *dist.Timeline) updater {
			h := core.NewHyLo(net, 0.3, 0.5, c, tl, mat.NewRNG(7))
			h.Policy = core.FixedSwitch{Mode: mode}
			h.OnEpochStart(0, false)
			return h
		}
	}
	backends := []struct {
		name, optimizer, mode string
		factorizes            bool
		build                 builder
	}{
		{"hylo-kid", "hylo", "KID", true, hylo(core.ModeKID)},
		{"hylo-kis", "hylo", "KIS", true, hylo(core.ModeKIS)},
		{"kfac", "kfac", "", true, func(net *nn.Network, c dist.Comm, tl *dist.Timeline) updater {
			return kfac.NewKFAC(net, 0.3, c, tl)
		}},
		{"ekfac", "ekfac", "", true, func(net *nn.Network, c dist.Comm, tl *dist.Timeline) updater {
			return kfac.NewEKFAC(net, 0.3, c, tl)
		}},
		{"sngd", "sngd", "", false, func(net *nn.Network, c dist.Comm, tl *dist.Timeline) updater {
			return sngd.New(net, 0.3, c, tl)
		}},
	}
	const layers = 3
	for _, b := range backends {
		for _, p := range []int{1, 2} {
			b, p := b, p
			t.Run(fmt.Sprintf("%s/p=%d", b.name, p), func(t *testing.T) {
				prev := telemetry.Default()
				telemetry.SetDefault(telemetry.New())
				telemetry.SetEnabled(true)
				defer func() {
					telemetry.SetEnabled(false)
					telemetry.SetDefault(prev)
				}()
				tl := dist.NewTimeline()
				if p == 1 {
					b.build(capturedNet(0), dist.Local(), tl).Update()
				} else {
					dist.NewCluster(p).Run(func(w *dist.Worker) {
						b.build(capturedNet(w.Rank), w, tl).Update()
					})
				}
				owned := func(rank int) int { return (layers - rank + p - 1) / p }
				want := func(phase string, rank int) int {
					switch {
					case phase == dist.PhaseInvert:
						return owned(rank)
					case phase == dist.PhaseFactorize && !b.factorizes:
						return 0
					}
					return layers
				}
				phases := []string{dist.PhaseFactorize, dist.PhaseGather, dist.PhaseInvert, dist.PhaseBroadcast}
				isPhase := map[string]bool{}
				for _, phase := range phases {
					isPhase[phase] = true
					if got := tl.Count(phase); got != want(phase, 0) {
						t.Errorf("rank-0 Timeline %q count = %d; want %d", phase, got, want(phase, 0))
					}
				}
				spans := map[string]int{} // "phase/rank"
				for _, e := range telemetry.Default().Trace.Events() {
					if !isPhase[e.Name] {
						continue
					}
					labels := map[string]string{}
					for _, l := range e.Labels {
						labels[l.Key] = l.Value
					}
					if labels["optimizer"] != b.optimizer || labels["mode"] != b.mode || labels["layer"] == "" {
						t.Fatalf("span %q on rank %d has labels %v; want optimizer=%s mode=%q and a layer",
							e.Name, e.TID, e.Labels, b.optimizer, b.mode)
					}
					spans[fmt.Sprintf("%s/%d", e.Name, e.TID)]++
				}
				for rank := 0; rank < p; rank++ {
					for _, phase := range phases {
						if got := spans[fmt.Sprintf("%s/%d", phase, rank)]; got != want(phase, rank) {
							t.Errorf("rank %d emitted %d %q spans; want %d", rank, got, phase, want(phase, rank))
						}
					}
				}
			})
		}
	}
}
