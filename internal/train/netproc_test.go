package train

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	distnet "repro/internal/dist/net"
	"repro/internal/mat"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// b2i renders a bool as the 0/1 the HYLO_FMA override expects.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// These tests are the acceptance gate for the TCP transport: a P=4 run
// split across two real OS processes must produce bit-identical results to
// the in-process simulated cluster — with a clean network, under 10%
// socket-level drop/dup/reorder faults, and across a mid-epoch process
// death that shrinks the world. The second process is this test binary
// re-executed with HYLO_NET_TRAIN_HELPER=1 (the standard re-exec pattern),
// so both sides share every workload builder and seed by construction.

const netHelperEnv = "HYLO_NET_TRAIN_HELPER"

// netOptimizers are the four methods the paper benchmarks; each must hold
// bit-parity across the process boundary.
var netOptimizers = []string{"HyLo", "KFAC", "SNGD", "KBFGS-L"}

// netTrainCfg is the workload shared verbatim by the coordinator test
// process, the helper process, and the in-process reference run. With
// vectorTask(31) (270 train samples) and P=4: global batch 60, 4
// steps/epoch; after a shrink to P=3: global batch 45, 6 steps/epoch.
func netTrainCfg(epochs int) Config {
	cfg := baseCfg()
	cfg.Epochs = epochs
	cfg.BatchSize = 15
	return cfg
}

// netDigest fingerprints the test workload so a helper launched with
// mismatched parameters is rejected at rendezvous instead of diverging.
// Topology is part of the fingerprint: a hub member joining a tree
// cluster would stall (it never opens a data-plane listener), so the
// mismatch is fenced at rendezvous.
func netDigest(optName string, epochs int, topo string) uint64 {
	return distnet.ConfigDigestOf("netproc-test", optName, strconv.Itoa(epochs), topo)
}

func netTimeouts(cfg *distnet.Config) {
	// Generous liveness windows: a spurious peer-death under -race or a
	// loaded CI machine would break parity, and organic deaths are
	// detected by leave notifications, not deadlines.
	cfg.HeartbeatEvery = 50 * time.Millisecond
	cfg.PeerDeadline = 10 * time.Second
	cfg.RetransmitEvery = 100 * time.Millisecond
	cfg.RendezvousTimeout = 90 * time.Second
}

func parseNetPanic(spec string) *dist.FaultPlan {
	rs, ss, ok := strings.Cut(spec, "@")
	if !ok {
		return nil
	}
	r, err1 := strconv.Atoi(rs)
	s, err2 := strconv.Atoi(ss)
	if err1 != nil || err2 != nil {
		return nil
	}
	return &dist.FaultPlan{Seed: 5, PanicRank: r, PanicStep: s}
}

// TestNetTrainHelperProcess is the re-exec entry point: it is a no-op
// under a normal `go test` run and becomes the second OS process of the
// cluster when spawned by runNetCoordinator.
func TestNetTrainHelperProcess(t *testing.T) {
	if os.Getenv(netHelperEnv) != "1" {
		t.Skip("re-exec entry point for the multi-process transport tests")
	}
	join := os.Getenv("HYLO_NET_JOIN")
	optName := os.Getenv("HYLO_NET_OPT")
	epochs, _ := strconv.Atoi(os.Getenv("HYLO_NET_EPOCHS"))
	ranks, _ := strconv.Atoi(os.Getenv("HYLO_NET_RANKS"))
	world, _ := strconv.Atoi(os.Getenv("HYLO_NET_WORLD"))
	expectDeath := os.Getenv("HYLO_NET_EXPECT_DEATH") == "1"
	if n, _ := strconv.Atoi(os.Getenv("HYLO_NET_SCHED")); n > 0 {
		sched.SetWorkers(n)
	}

	var sockPlan *distnet.SocketFaultPlan
	if spec := os.Getenv("HYLO_NET_SOCKFAULT"); spec != "" {
		p, err := distnet.ParseSocketFaultSpec(spec)
		if err != nil {
			t.Fatalf("helper: socket fault spec: %v", err)
		}
		p.Seed = 42
		sockPlan = p
	}
	var chaos *dist.FaultPlan
	if spec := os.Getenv("HYLO_NET_PANIC"); spec != "" {
		if chaos = parseNetPanic(spec); chaos == nil {
			t.Fatalf("helper: bad panic spec %q", spec)
		}
	}
	topo := os.Getenv("HYLO_NET_TOPOLOGY")
	chunk, _ := strconv.Atoi(os.Getenv("HYLO_NET_CHUNK"))

	ncfg := distnet.Config{
		Join:         join,
		LocalRanks:   ranks,
		WorldSize:    world,
		ConfigDigest: netDigest(optName, epochs, topo),
		Seed:         42,
		Faults:       sockPlan,
		Topology:     topo,
		ChunkElems:   chunk,
	}
	netTimeouts(&ncfg)
	proc, err := distnet.Start(ncfg)
	if err != nil {
		t.Fatalf("helper: join %s: %v", join, err)
	}
	defer proc.Close()

	tr, te := vectorTask(31)
	_, err = RunElasticProc(proc, netTrainCfg(epochs), ElasticConfig{
		Dir:    t.TempDir(),
		Every:  1,
		Faults: chaos,
	}, mlpBuilder(12, 3), tr, te, Classification(), precondFactories()[optName], 0)
	if expectDeath {
		// This process hosts the rank scheduled to die; its driver must
		// fail to rejoin (dead members are fenced out) and surface that.
		if err == nil {
			t.Fatal("helper: expected the injected death to end this run")
		}
		return
	}
	if err != nil {
		t.Fatalf("helper: run: %v", err)
	}
}

// runNetCoordinator forms a two-OS-process cluster — this test process is
// the coordinator hosting coordRanks ranks, a re-exec'd helper hosts
// helperRanks — trains the shared workload over it, and returns rank 0's
// Result plus the post-run world size and generation.
func runNetCoordinator(t *testing.T, optName string, epochs, coordRanks, helperRanks int,
	sockSpec, panicSpec string, schedWorkers int, topo string, chunk int) (Result, int, int) {
	t.Helper()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	world := coordRanks + helperRanks

	env := append(os.Environ(),
		netHelperEnv+"=1",
		"HYLO_NET_JOIN="+ln.Addr().String(),
		"HYLO_NET_OPT="+optName,
		fmt.Sprintf("HYLO_NET_EPOCHS=%d", epochs),
		fmt.Sprintf("HYLO_NET_RANKS=%d", helperRanks),
		fmt.Sprintf("HYLO_NET_WORLD=%d", world),
		"HYLO_NET_TOPOLOGY="+topo,
		fmt.Sprintf("HYLO_NET_CHUNK=%d", chunk),
		// Adversarial numerics: start the helper on the OPPOSITE kernel
		// family from this process, as a member launched with a different
		// HYLO_FMA would be. The generation-start handshake must conform
		// it to the coordinator's family or every parity assertion below
		// fails by an ulp.
		fmt.Sprintf("HYLO_FMA=%d", b2i(!mat.FMAKernels())),
	)
	if schedWorkers > 0 {
		env = append(env, fmt.Sprintf("HYLO_NET_SCHED=%d", schedWorkers))
	}
	var chaos *dist.FaultPlan
	if panicSpec != "" {
		env = append(env, "HYLO_NET_PANIC="+panicSpec, "HYLO_NET_EXPECT_DEATH=1")
		if chaos = parseNetPanic(panicSpec); chaos == nil {
			t.Fatalf("bad panic spec %q", panicSpec)
		}
	}
	var sockPlan *distnet.SocketFaultPlan
	if sockSpec != "" {
		env = append(env, "HYLO_NET_SOCKFAULT="+sockSpec)
		p, err := distnet.ParseSocketFaultSpec(sockSpec)
		if err != nil {
			t.Fatalf("socket fault spec: %v", err)
		}
		p.Seed = 42
		sockPlan = p
	}

	cmd := exec.Command(os.Args[0],
		"-test.run", "^TestNetTrainHelperProcess$", "-test.timeout", "180s")
	cmd.Env = env
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn helper: %v", err)
	}
	defer func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	ncfg := distnet.Config{
		Listener:     ln,
		LocalRanks:   coordRanks,
		WorldSize:    world,
		ConfigDigest: netDigest(optName, epochs, topo),
		Seed:         42,
		Faults:       sockPlan,
		Topology:     topo,
		ChunkElems:   chunk,
	}
	netTimeouts(&ncfg)
	proc, err := distnet.Start(ncfg)
	if err != nil {
		t.Fatalf("coordinator start: %v\nhelper output:\n%s", err, out.Bytes())
	}
	defer proc.Close()

	tr, te := vectorTask(31)
	res, err := RunElasticProc(proc, netTrainCfg(epochs), ElasticConfig{
		Dir:    t.TempDir(),
		Every:  1,
		Faults: chaos,
	}, mlpBuilder(12, 3), tr, te, Classification(), precondFactories()[optName], 0)
	if err != nil {
		t.Fatalf("coordinator run: %v\nhelper output:\n%s", err, out.Bytes())
	}
	// Capture world/gen before waiting out the helper: the assertions are
	// about the cluster DURING training. The helper's deferred Close sends
	// a leave, which in either topology retires the member silently when
	// no collective open at the root still waits on it — the clean end of
	// a run — and is a death, with a smaller generation, otherwise; a
	// post-Wait reading would depend on which of the two this healthy
	// shutdown happened to be.
	world, gen := proc.WorldSize(), proc.Gen()
	if werr := cmd.Wait(); werr != nil {
		t.Fatalf("helper process failed: %v\noutput:\n%s", werr, out.Bytes())
	}
	if gen != 1 {
		t.Logf("gen=%d helper output:\n%s", gen, out.Bytes())
	}
	return res, world, gen
}

// bitsEqualResults compares two training histories as raw float64 bits —
// the acceptance criterion is parity, not closeness.
func bitsEqualResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Stats) != len(got.Stats) {
		t.Fatalf("%s: epoch counts differ: %d vs %d", label, len(want.Stats), len(got.Stats))
	}
	for i := range want.Stats {
		if math.Float64bits(want.Stats[i].TrainLoss) != math.Float64bits(got.Stats[i].TrainLoss) {
			t.Fatalf("%s: epoch %d train loss bits differ: %.17g vs %.17g",
				label, i, want.Stats[i].TrainLoss, got.Stats[i].TrainLoss)
		}
		if math.Float64bits(want.Stats[i].Metric) != math.Float64bits(got.Stats[i].Metric) {
			t.Fatalf("%s: epoch %d metric bits differ: %.17g vs %.17g",
				label, i, want.Stats[i].Metric, got.Stats[i].Metric)
		}
	}
	if math.Float64bits(want.FinalLoss) != math.Float64bits(got.FinalLoss) {
		t.Fatalf("%s: final loss bits differ: %.17g vs %.17g", label, want.FinalLoss, got.FinalLoss)
	}
	if math.Float64bits(want.Best) != math.Float64bits(got.Best) {
		t.Fatalf("%s: best metric bits differ: %.17g vs %.17g", label, want.Best, got.Best)
	}
}

// TestNetProcTrainingParity: P=4 split 2+2 across two OS processes must
// reproduce the in-process elastic run bit-for-bit for every optimizer —
// on a clean network and again under 10% socket drop/dup/reorder faults
// (retransmission must mask the faults without perturbing arithmetic).
func TestNetProcTrainingParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, optName := range netOptimizers {
		t.Run(optName, func(t *testing.T) {
			tr, te := vectorTask(31)
			ref, err := Drive(bg, inProc(4),
				Job{netTrainCfg(2), mlpBuilder(12, 3), tr, te, Classification(), precondFactories()[optName], 0},
				ElasticConfig{Dir: t.TempDir(), Every: 1})
			if err != nil {
				t.Fatalf("in-process reference: %v", err)
			}

			res, world, gen := runNetCoordinator(t, optName, 2, 2, 2, "", "", 0, distnet.TopologyHub, 0)
			if world != 4 || gen != 1 {
				t.Fatalf("cluster ended at world=%d gen=%d; want 4/1", world, gen)
			}
			bitsEqualResults(t, optName+"/clean", ref, res)

			res, world, gen = runNetCoordinator(t, optName, 2, 2, 2,
				"drop:0.1,dup:0.1,reorder:0.1", "", 0, distnet.TopologyHub, 0)
			if world != 4 || gen != 1 {
				t.Fatalf("faulted cluster ended at world=%d gen=%d; want 4/1", world, gen)
			}
			bitsEqualResults(t, optName+"/socket-faults", ref, res)
		})
	}
}

// TestNetProcTreeTopologyParity: the tree data plane must be invisible
// to training arithmetic. For every optimizer the paper benchmarks, at
// P=2 and P=4 split across two OS processes, a tree-topology run — with
// a deliberately tiny chunk size so every gradient allreduce is
// pipelined across multiple chunks — must reproduce the in-process
// elastic reference bit-for-bit, on a clean network and under 10%
// socket drop/dup/reorder faults on every link including the tree
// data plane.
func TestNetProcTreeTopologyParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, optName := range netOptimizers {
		t.Run(optName, func(t *testing.T) {
			for _, world := range []int{2, 4} {
				t.Run(fmt.Sprintf("P%d", world), func(t *testing.T) {
					tr, te := vectorTask(31)
					ref, err := Drive(bg, inProc(world),
						Job{netTrainCfg(2), mlpBuilder(12, 3), tr, te, Classification(), precondFactories()[optName], 0},
						ElasticConfig{Dir: t.TempDir(), Every: 1})
					if err != nil {
						t.Fatalf("in-process reference: %v", err)
					}

					coordRanks := world / 2
					helperRanks := world - coordRanks
					// Either end state is healthy: gen 1 at full strength, or
					// the benign end-of-run reform — the helper finished,
					// closed, and its leave (a death under tree topology, see
					// coordinator leave handling) reformed the survivors
					// before the coordinator's own teardown completed. A
					// mid-TRAINING shrink is excluded by the bit-parity
					// assertion: recovery onto fewer ranks repartitions the
					// batch and cannot reproduce the reference bits.
					checkGen := func(w, gen int, label string) {
						t.Helper()
						if (w == world && gen == 1) || (w == coordRanks && gen == 2) {
							return
						}
						t.Fatalf("%s: cluster ended at world=%d gen=%d; want %d/1 or the post-run reform %d/2",
							label, w, gen, world, coordRanks)
					}

					res, w, gen := runNetCoordinator(t, optName, 2, coordRanks, helperRanks,
						"", "", 0, distnet.TopologyTree, 64)
					label := fmt.Sprintf("%s/P%d/tree-clean", optName, world)
					bitsEqualResults(t, label, ref, res)
					checkGen(w, gen, label)

					res, w, gen = runNetCoordinator(t, optName, 2, coordRanks, helperRanks,
						"drop:0.1,dup:0.1,reorder:0.1", "", 0, distnet.TopologyTree, 64)
					label = fmt.Sprintf("%s/P%d/tree-faults", optName, world)
					bitsEqualResults(t, label, ref, res)
					checkGen(w, gen, label)
				})
			}
		})
	}
}

// TestNetProcShrinkMatchesInProcess: killing the process hosting rank 3
// mid-epoch must shrink the cluster to P=3 and resume from the last
// checkpoint with exactly the loss trajectory the in-process chaos
// equivalent (RunElastic with AllowShrink and the same fault plan)
// produces.
func TestNetProcShrinkMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	}()

	// 4 steps/epoch at P=4: step 9 is mid-epoch-2, so checkpoints for
	// epochs 0 and 1 exist and recovery resumes epoch 2 on P=3.
	plan := &dist.FaultPlan{Seed: 5, PanicRank: 3, PanicStep: 9}
	tr, te := vectorTask(31)
	ref, err := Drive(bg, shrinking(4),
		Job{netTrainCfg(4), mlpBuilder(12, 3), tr, te, Classification(), precondFactories()["HyLo"], 0}, ElasticConfig{
			Dir: t.TempDir(), Every: 1, Faults: plan,
		})
	if err != nil {
		t.Fatalf("in-process shrink reference: %v", err)
	}
	reg := telemetry.Default().Metrics
	if n := reg.Counter(telemetry.MetricFaultsInjected,
		telemetry.Label{Key: "kind", Value: "panic"}).Value(); n != 1 {
		t.Fatalf("reference injected panics = %d; want 1 (step schedule is wrong)", n)
	}

	res, world, gen := runNetCoordinator(t, "HyLo", 4, 3, 1, "", "3@9", 0, distnet.TopologyHub, 0)
	if world != 3 {
		t.Fatalf("world after shrink = %d; want 3", world)
	}
	if gen != 2 {
		t.Fatalf("generation after shrink = %d; want 2", gen)
	}
	if n := reg.Counter(telemetry.MetricRecoveries,
		telemetry.Label{Key: "transport", Value: "tcp"}).Value(); n != 1 {
		t.Fatalf("tcp recoveries = %d; want 1", n)
	}
	bitsEqualResults(t, "shrink", ref, res)
}

// TestNetProcParityWithParallelScheduler: the async scheduler (4 workers in
// both processes, overlapping preconditioner rebuilds with collectives over
// the TCP links) must still match the sequential in-process reference
// bit-for-bit — scheduling changes when work happens, never what is summed.
func TestNetProcParityWithParallelScheduler(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	prev := sched.Workers()
	sched.SetWorkers(1)
	tr, te := vectorTask(31)
	ref, err := Drive(bg, inProc(4),
		Job{netTrainCfg(2), mlpBuilder(12, 3), tr, te, Classification(), precondFactories()["HyLo"], 0},
		ElasticConfig{Dir: t.TempDir(), Every: 1})
	if err != nil {
		sched.SetWorkers(prev)
		t.Fatalf("sequential reference: %v", err)
	}

	sched.SetWorkers(4)
	defer sched.SetWorkers(prev)
	res, world, gen := runNetCoordinator(t, "HyLo", 2, 2, 2, "", "", 4, distnet.TopologyHub, 0)
	if world != 4 || gen != 1 {
		t.Fatalf("cluster ended at world=%d gen=%d; want 4/1", world, gen)
	}
	bitsEqualResults(t, "parallel-sched", ref, res)
}
