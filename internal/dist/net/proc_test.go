package distnet

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// testConfig returns timings tuned for fast tests: aggressive retransmit,
// short (but not hair-trigger) failure detection.
func testConfig(world int) Config {
	return Config{
		WorldSize:         world,
		ConfigDigest:      0xD1D1,
		Seed:              42,
		HeartbeatEvery:    40 * time.Millisecond,
		PeerDeadline:      2 * time.Second,
		RetransmitEvery:   50 * time.Millisecond,
		RendezvousTimeout: 15 * time.Second,
	}
}

// topologies is the shape matrix every transport suite runs over: both
// must reproduce the in-process cluster's bits exactly.
var topologies = []string{TopologyHub, TopologyTree}

// startCluster launches one Proc per locals entry over real loopback TCP
// (index 0 is the coordinator) and blocks until generation 1 is live.
func startCluster(t testing.TB, base Config, locals ...int) []*Proc {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*Proc, len(locals))
	errc := make([]error, len(locals))
	var wg sync.WaitGroup
	for i, n := range locals {
		cfg := base
		cfg.LocalRanks = n
		if i == 0 {
			cfg.Listener = ln
		} else {
			cfg.Join = ln.Addr().String()
		}
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			procs[i], errc[i] = Start(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errc {
		if err != nil {
			t.Fatalf("proc %d failed to start: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil {
				p.Close()
			}
		}
	})
	return procs
}

// workload drives every collective the transport offers and records each
// result's raw float bits — the parity currency.
func workload(c dist.Comm, steps int) []uint64 {
	var out []uint64
	rec := func(v float64) { out = append(out, math.Float64bits(v)) }
	for step := 0; step < steps; step++ {
		m := mat.NewDense(4, 3)
		d := m.Data()
		rng := mat.NewRNG(uint64(97 + c.ID()*31 + step*7))
		for i := range d {
			d[i] = rng.Float64()*2 - 1
		}
		sum := c.AllReduceMat(m)
		for _, v := range sum.Data() {
			rec(v)
		}
		for _, g := range c.AllGatherMat(m) {
			rec(g.Data()[step%len(g.Data())])
		}
		b := c.BroadcastMat(step%c.Size(), m)
		rec(b.Data()[1])
		rec(c.AllReduceScalar(float64(c.ID()) + 1/float64(step+3)))
		if bar, ok := dist.AsBarrier(c); ok {
			bar.Barrier()
		}
		if g, ok := dist.AsByteGatherer(c); ok {
			bs := g.GatherBytes([]byte{byte(c.ID()), byte(step)})
			for _, b := range bs {
				rec(float64(int(b[0])<<8 | int(b[1])))
			}
		}
	}
	return out
}

// runNet runs the workload across the given procs and returns per-global-
// rank traces plus any worker errors.
func runNet(procs []*Proc, world, steps int) ([][]uint64, []error) {
	traces := make([][]uint64, world)
	var errs []error
	var emu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			es := p.Run(func(c dist.Comm) {
				traces[c.ID()] = workload(c, steps)
			})
			emu.Lock()
			errs = append(errs, es...)
			emu.Unlock()
		}(p)
	}
	wg.Wait()
	return traces, errs
}

// runRef runs the identical workload on the in-process simulated cluster.
func runRef(world, steps int) [][]uint64 {
	traces := make([][]uint64, world)
	dist.NewCluster(world).Run(func(w *dist.Worker) {
		traces[w.Rank] = workload(w, steps)
	})
	return traces
}

func compareTraces(t *testing.T, name string, got, want [][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ranks vs %d", name, len(got), len(want))
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s: rank %d recorded %d values, want %d", name, r, len(got[r]), len(want[r]))
		}
		for i := range got[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("%s: rank %d diverges at value %d: %x vs %x",
					name, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// parityTable runs the six-op workload over every tree shape, member
// count, ranks per member and chunk size (the 4×3 workload matrix is 12
// floats: one chunk by default, four at ChunkElems 3), and bit-compares
// each rank's trace with the in-process cluster's.
func parityTable(t *testing.T, steps int, faults *SocketFaultPlan) {
	refs := map[int][][]uint64{}
	for members := 2; members <= 5; members++ {
		for local := 1; local <= 2; local++ {
			refs[members*local] = runRef(members*local, steps)
		}
	}
	for _, topo := range topologies {
		t.Run(topo, func(t *testing.T) {
			for members := 2; members <= 5; members++ {
				for local := 1; local <= 2; local++ {
					for _, chunk := range []int{0, 3} {
						members, local, chunk := members, local, chunk
						t.Run(fmt.Sprintf("m%d_l%d_c%d", members, local, chunk), func(t *testing.T) {
							t.Parallel()
							world := members * local
							cfg := testConfig(world)
							cfg.Topology, cfg.ChunkElems, cfg.Faults = topo, chunk, faults
							if faults != nil {
								cfg.RetransmitEvery = 10 * time.Millisecond // a lost frame costs one tick
							}
							locals := make([]int, members)
							for i := range locals {
								locals[i] = local
							}
							procs := startCluster(t, cfg, locals...)
							if procs[0].WorldSize() != world || procs[0].BaseRank() != 0 {
								t.Fatalf("coordinator world=%d base=%d", procs[0].WorldSize(), procs[0].BaseRank())
							}
							got, errs := runNet(procs, world, steps)
							if len(errs) != 0 {
								t.Fatalf("worker errors: %v", errs)
							}
							compareTraces(t, "tcp-vs-cluster", got, refs[world])
						})
					}
				}
			}
		})
	}
}

// TestProcMatchesCluster: Procs on real TCP sockets produce bit-identical
// results to the in-process simulated cluster for every collective, in
// both tree shapes, however the ranks are grouped and chunked.
func TestProcMatchesCluster(t *testing.T) { parityTable(t, 6, nil) }

// TestProcParityUnderSocketFaults: with 10% drop/dup/reorder injected on
// every control and data link the retransmit protocol still yields the
// exact same bits.
func TestProcParityUnderSocketFaults(t *testing.T) {
	parityTable(t, 3, &SocketFaultPlan{Seed: 9, DropProb: 0.10, DupProb: 0.10, ReorderProb: 0.10})
}

// withTelemetry swaps in a fresh enabled registry for the test.
func withTelemetry(t *testing.T) *telemetry.Registry {
	prev := telemetry.Default()
	telemetry.SetDefault(telemetry.New())
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.SetDefault(prev)
	})
	return telemetry.Default().Metrics
}

// peerDeaths lists the member and reason of every death the coordinator
// declared, from the distnet_peer_dead instants of withTelemetry's trace.
func peerDeaths() string {
	var out []string
	for _, e := range telemetry.Default().Trace.Events() {
		if e.Name != "distnet_peer_dead" {
			continue
		}
		reason := ""
		for _, l := range e.Labels {
			if l.Key == "reason" {
				reason = l.Value
			}
		}
		out = append(out, fmt.Sprintf("member %d: %s", e.TID, reason))
	}
	if len(out) == 0 {
		return "none"
	}
	return strings.Join(out, "; ")
}

// TestProcCollTimeout: a rank that never reaches a collective while its
// process keeps heartbeating is invisible to the liveness detectors; the
// watchdog must turn the stuck collective into a death the survivors see.
// Under the tree shape the hung rank 3 sits below rank 2, so the root
// can only name the child its contribution is missing through.
func TestProcCollTimeout(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo, func(t *testing.T) {
			reg := withTelemetry(t)
			cfg := testConfig(4)
			cfg.Topology = topo
			cfg.CollTimeout = 200 * time.Millisecond
			cfg.PeerDeadline = 600 * time.Millisecond // how the member the watchdog kills finds out
			procs := startCluster(t, cfg, 1, 1, 1, 1)

			release := make(chan struct{})
			var wg sync.WaitGroup
			poisoned := make([]bool, len(procs))
			for i, p := range procs {
				wg.Add(1)
				go func(i int, p *Proc) {
					defer wg.Done()
					errs := p.Run(func(c dist.Comm) {
						if c.ID() == 3 {
							<-release // hung outside any collective
						}
						c.AllReduceScalar(1)
					})
					poisoned[i] = len(errs) == 1 && errs[0].(dist.WorkerError).Err == any(dist.ErrClusterPoisoned)
					if i == 0 {
						close(release) // rank 0 has been poisoned: let the hung rank run into it too
					}
				}(i, p)
			}
			wg.Wait()
			for i, ok := range poisoned {
				if !ok {
					t.Fatalf("proc %d (rank %d) was not poisoned by the watchdog", i, procs[i].BaseRank())
				}
			}
			var pde *PeerDeathError
			if !errors.As(procs[0].Err(), &pde) || !strings.Contains(pde.Reason, "stuck past watchdog") {
				t.Fatalf("coordinator failure = %v; want a watchdog PeerDeathError", procs[0].Err())
			}
			if n := reg.Counter(telemetry.MetricBarrierWatchdog).Value(); n < 1 {
				t.Fatalf("watchdog counter = %d; want >= 1", n)
			}
		})
	}
}

// TestProcCleanDeparture: members that leave after a healthy run are not
// failures — no death is counted and the coordinator's generation stands —
// whichever order they go in, interior tree members included.
func TestProcCleanDeparture(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo, func(t *testing.T) {
			reg := withTelemetry(t)
			cfg := testConfig(4)
			cfg.Topology = topo
			procs := startCluster(t, cfg, 1, 1, 1, 1)
			got, errs := runNet(procs, 4, 3)
			if len(errs) != 0 {
				t.Fatalf("worker errors: %v", errs)
			}
			compareTraces(t, "before-departure", got, runRef(4, 3))

			for _, p := range procs[1:] {
				p.Close()
			}
			// Each leave is handled on the coordinator's connection goroutine;
			// a few scan periods let a wrong verdict (a declared death, a
			// rejoin round) show up.
			time.Sleep(4 * cfg.HeartbeatEvery)
			if n := reg.Counter(telemetry.MetricWorkerFailures).Value(); n != 0 {
				t.Fatalf("worker failures after clean departures = %d; want 0 (deaths: %s)", n, peerDeaths())
			}
			if err := procs[0].Err(); err != nil {
				t.Fatalf("coordinator poisoned by clean departures: %v (deaths: %s)", err, peerDeaths())
			}
			if g, w := procs[0].Gen(), procs[0].WorldSize(); g != 1 || w != 4 {
				t.Fatalf("after clean departures gen=%d world=%d; want 1/4 (deaths: %s)", g, w, peerDeaths())
			}
		})
	}
}

// TestProcShrinkRejoin: a worker panic in one process poisons every rank
// with the chaos layer's failure type; survivors rejoin at gen+1 with the
// world shrunk, and post-shrink collectives match the in-process cluster at
// the smaller size. This is the transport-level half of the elastic
// recovery contract.
func TestProcShrinkRejoin(t *testing.T) {
	for _, topo := range topologies {
		t.Run(topo, func(t *testing.T) { testProcShrinkRejoin(t, topo) })
	}
}

func testProcShrinkRejoin(t *testing.T, topo string) {
	cfg := testConfig(4)
	cfg.Topology = topo
	procs := startCluster(t, cfg, 2, 1, 1)

	// Join order decides which single-rank process hosts rank 3; find it
	// rather than assuming.
	dying := 1
	if procs[2].BaseRank() == 3 {
		dying = 2
	}
	survivors := []*Proc{procs[0], procs[3-dying]}

	var wg sync.WaitGroup
	allErrs := make([][]error, 3)
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			allErrs[i] = p.Run(func(c dist.Comm) {
				for step := 0; ; step++ {
					c.AllReduceScalar(1)
					if step == 2 && c.ID() == 3 {
						panic("injected: rank 3 dies")
					}
				}
			})
		}(i, p)
	}
	wg.Wait()

	// The dying process reports its own panic; every other rank reports the
	// poison panic, exactly like dist.RunWithRecovery.
	for i, errs := range allErrs {
		if len(errs) == 0 {
			t.Fatalf("proc %d: no errors; want poisoned/injected", i)
		}
		for _, err := range errs {
			we, ok := err.(dist.WorkerError)
			if !ok {
				t.Fatalf("proc %d: error type %T", i, err)
			}
			if we.Rank == 3 {
				if s, _ := we.Err.(string); !strings.Contains(s, "injected") {
					t.Fatalf("rank 3 error = %v", we.Err)
				}
			} else if we.Err != any(dist.ErrClusterPoisoned) {
				t.Fatalf("rank %d panic = %v; want ErrClusterPoisoned", we.Rank, we.Err)
			}
		}
	}

	// Survivors rejoin; the dead process does not.
	rejoinErr := make([]error, 2)
	for i, p := range survivors {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			rejoinErr[i] = p.Rejoin()
		}(i, p)
	}
	wg.Wait()
	for i, err := range rejoinErr {
		if err != nil {
			t.Fatalf("proc %d rejoin: %v", i, err)
		}
	}
	if w := procs[0].WorldSize(); w != 3 {
		t.Fatalf("post-shrink world = %d, want 3", w)
	}
	if g := procs[0].Gen(); g != 2 {
		t.Fatalf("post-shrink gen = %d, want 2", g)
	}

	// Snapshot sync: the coordinator process's blob is authoritative.
	blobs := make([][]byte, 2)
	for i, p := range survivors {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			local := []byte("proc-" + string(rune('0'+i)) + "-snapshot")
			blobs[i], _ = p.SyncSnapshot(local)
		}(i, p)
	}
	wg.Wait()
	if string(blobs[0]) != "proc-0-snapshot" || string(blobs[1]) != "proc-0-snapshot" {
		t.Fatalf("snapshot sync: %q / %q; want coordinator's on both", blobs[0], blobs[1])
	}

	got, errs := runNet(survivors, 3, 4)
	if len(errs) != 0 {
		t.Fatalf("post-shrink worker errors: %v", errs)
	}
	compareTraces(t, "post-shrink", got, runRef(3, 4))
}

// TestProcKilledProcess: severing a process's connection entirely (the
// moral equivalent of kill -9) also shrinks the cluster — via the
// reconnect-grace and heartbeat-deadline detectors rather than a leave.
func TestProcKilledProcess(t *testing.T) {
	cfg := testConfig(3)
	cfg.PeerDeadline = 400 * time.Millisecond
	procs := startCluster(t, cfg, 2, 1)

	// Hard-kill proc 1: close its socket without a leave and stop its
	// heartbeats, as an OS process death would.
	procs[1].link.close()

	var wg sync.WaitGroup
	var errs0 []error
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs0 = procs[0].Run(func(c dist.Comm) {
			for {
				c.AllReduceScalar(1) // rank 2 never contributes → death → poison
			}
		})
	}()
	wg.Wait()
	if len(errs0) != 2 {
		t.Fatalf("survivor errors = %v; want both local ranks poisoned", errs0)
	}
	var pde *PeerDeathError
	if !errors.As(procs[0].Err(), &pde) {
		t.Fatalf("proc failure = %v; want PeerDeathError", procs[0].Err())
	}

	if err := procs[0].Rejoin(); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if w := procs[0].WorldSize(); w != 2 {
		t.Fatalf("post-kill world = %d, want 2", w)
	}
	got, errs := runNet(procs[:1], 2, 3)
	if len(errs) != 0 {
		t.Fatalf("post-kill worker errors: %v", errs)
	}
	compareTraces(t, "post-kill", got, runRef(2, 3))
}

// TestProcTreeInteriorMemberDeath hard-kills an interior member of the
// reduction tree (one with both a parent and a child). The orphaned
// subtree can no longer ascend, so the generation must poison via the
// liveness detectors; survivors rejoin at gen+1, the coordinator rebuilds
// the tree over the shrunken world, and post-recovery collectives are
// bit-identical to the hub oracle (== the in-process cluster).
func TestProcTreeInteriorMemberDeath(t *testing.T) {
	cfg := testConfig(4)
	cfg.Topology = TopologyTree
	cfg.PeerDeadline = 400 * time.Millisecond
	procs := startCluster(t, cfg, 1, 1, 1, 1)

	// With four single-rank members the canonical tree is
	// rank0 ← {rank1, rank2}, rank2 ← rank3: rank 2 is interior.
	interior := 0
	for i, p := range procs {
		if p.BaseRank() == 2 {
			interior = i
		}
	}
	if interior == 0 {
		t.Fatal("rank 2 landed on the coordinator; expected a joiner")
	}
	procs[interior].link.close()

	var survivors []*Proc
	for i, p := range procs {
		if i != interior {
			survivors = append(survivors, p)
		}
	}
	var wg sync.WaitGroup
	allErrs := make([][]error, len(survivors))
	for i, p := range survivors {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			allErrs[i] = p.Run(func(c dist.Comm) {
				for {
					c.AllReduceScalar(1) // rank 2 never contributes → death → poison
				}
			})
		}(i, p)
	}
	wg.Wait()
	for i, errs := range allErrs {
		if len(errs) == 0 {
			t.Fatalf("survivor %d: no poison after interior death", i)
		}
	}

	rejoinErr := make([]error, len(survivors))
	for i, p := range survivors {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			rejoinErr[i] = p.Rejoin()
		}(i, p)
	}
	wg.Wait()
	for i, err := range rejoinErr {
		if err != nil {
			t.Fatalf("survivor %d rejoin: %v", i, err)
		}
	}
	if w := procs[0].WorldSize(); w != 3 {
		t.Fatalf("post-death world = %d, want 3", w)
	}
	got, errs := runNet(survivors, 3, 4)
	if len(errs) != 0 {
		t.Fatalf("post-death worker errors: %v", errs)
	}
	compareTraces(t, "tree-post-interior-death", got, runRef(3, 4))
}

// TestProcRejectsConfigMismatch: a joiner whose config digest disagrees is
// refused at rendezvous instead of being allowed to diverge mid-run.
func TestProcRejectsConfigMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordCfg := testConfig(2)
	coordCfg.LocalRanks = 1
	coordCfg.Listener = ln

	var coordProc *Proc
	var coordErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		coordProc, coordErr = Start(coordCfg)
	}()

	badCfg := testConfig(2)
	badCfg.LocalRanks = 1
	badCfg.Join = ln.Addr().String()
	badCfg.ConfigDigest = 0xBAD
	if _, err := Start(badCfg); !errors.Is(err, ErrRejected) {
		t.Fatalf("mismatched digest: got %v, want ErrRejected", err)
	}

	wrongWorld := testConfig(3)
	wrongWorld.LocalRanks = 1
	wrongWorld.Join = ln.Addr().String()
	if _, err := Start(wrongWorld); !errors.Is(err, ErrRejected) {
		t.Fatalf("mismatched world: got %v, want ErrRejected", err)
	}

	// A joiner that advertises no data listener could never be wired into
	// the reduction tree; it is refused, and a start frame that names no
	// tree parent for a non-root member is refused on the member's side.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	noPort := joinMsg{Gen: 1, NLocal: 1, WorldSize: 2, ConfigDigest: coordCfg.ConfigDigest}
	if err := WriteFrame(conn, Frame{Type: ftJoin, Payload: encode(&noPort)}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn); err != nil || f.Type != ftReject {
		t.Fatalf("join without a data port: got frame type %d, err %v; want ftReject", f.Type, err)
	}
	if err := new(Proc).applyStart(startMsg{Gen: 1, WorldSize: 2, BaseRank: 1}); err == nil {
		t.Fatal("start without a tree parent for base rank 1 was accepted")
	}

	goodCfg := testConfig(2)
	goodCfg.LocalRanks = 1
	goodCfg.Join = ln.Addr().String()
	good, err := Start(goodCfg)
	if err != nil {
		t.Fatalf("good joiner: %v", err)
	}
	defer good.Close()
	wg.Wait()
	if coordErr != nil {
		t.Fatalf("coordinator: %v", coordErr)
	}
	defer coordProc.Close()
	if good.WorldSize() != 2 || good.BaseRank() != 1 {
		t.Fatalf("good joiner world=%d base=%d", good.WorldSize(), good.BaseRank())
	}
}

// TestProcCollectiveOverlap: a rank that deposits a collective while an
// earlier one is still undelivered breaks the one-collective-per-rank
// order the data plane relies on. The process withdraws with
// ErrCollectiveOverlap instead of hanging, and the rank still waiting on
// the earlier collective is poisoned.
func TestProcCollectiveOverlap(t *testing.T) {
	p := startCluster(t, testConfig(2), 2)[0]
	poisoned := func(f func()) (ok bool) {
		defer func() { ok = recover() == any(dist.ErrClusterPoisoned) }()
		f()
		return false
	}
	deposit := func(slot int, seq uint64) chan bool {
		c := make(chan bool, 1)
		go func() { c <- poisoned(func() { p.collective(slot, opScalar, sumPart(1), seq) }) }()
		return c
	}
	waitPoisoned := func(c chan bool, what string) {
		t.Helper()
		select {
		case ok := <-c:
			if !ok {
				t.Fatalf("%s was not poisoned", what)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s hangs", what)
		}
	}
	first := deposit(0, 1)
	// Wait until seq 1 is open: slot 0 has deposited, slot 1 never will.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		p.mu.Lock()
		n := len(p.colls)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("seq 1 never opened")
		}
	}
	waitPoisoned(deposit(1, 2), "the rank depositing seq 2 while seq 1 is open")
	if err := p.Err(); !errors.Is(err, ErrCollectiveOverlap) {
		t.Fatalf("proc failure = %v; want ErrCollectiveOverlap", err)
	}
	waitPoisoned(first, "the rank waiting on seq 1")
}

// gatherPayload is rank r's distinct byte string in gather it.
func gatherPayload(r, it int) []byte {
	return bytes.Repeat([]byte{byte(r), byte(it)}, 1+r+it%5)
}

// TestGatherBytesRootOnly: rank 0 gets every rank's bytes in rank order,
// every other rank nil — one rank a process at P = 2 and 3 in both shapes,
// and two ranks in the root's process. Each gather is followed by a
// broadcast whose receivers check every byte. The drop leg loses 30 % of
// the frames on every link, down frames among them (the chance that none
// of its 120 is lost is below 1e-18), so the root re-serves down frames
// of the collective it kept while its own ranks have moved on to the
// next one; a buffer recycled too early would arrive changed.
func TestGatherBytesRootOnly(t *testing.T) {
	const iters = 60
	for _, leg := range []struct {
		name   string
		topo   string
		locals []int
		faults *SocketFaultPlan
	}{
		{"hub_p2", TopologyHub, []int{1, 1}, nil},
		{"hub_p3", TopologyHub, []int{1, 1, 1}, nil},
		{"tree_p3", TopologyTree, []int{1, 1, 1}, nil},
		{"hub_2+1", TopologyHub, []int{2, 1}, nil},
		{"drop_p2", TopologyHub, []int{1, 1}, &SocketFaultPlan{Seed: 5, DropProb: 0.3}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			world := 0
			for _, n := range leg.locals {
				world += n
			}
			cfg := testConfig(world)
			cfg.Topology, cfg.Faults = leg.topo, leg.faults
			cfg.RetransmitEvery = 5 * time.Millisecond
			cfg.CollTimeout = 10 * time.Second // a down frame never re-served fails the leg
			procs := startCluster(t, cfg, leg.locals...)
			var wg sync.WaitGroup
			for _, p := range procs {
				wg.Add(1)
				go func(p *Proc) {
					defer wg.Done()
					for _, err := range p.Run(func(c dist.Comm) {
						g, _ := dist.AsByteGatherer(c)
						m := mat.NewDense(16, 16)
						for it := 0; it < iters; it++ {
							got := g.GatherBytes(gatherPayload(c.ID(), it))
							if c.ID() != 0 && got != nil {
								t.Errorf("rank %d gather %d: got %d bundles, want nil", c.ID(), it, len(got))
							}
							for r := 0; c.ID() == 0 && r < world; r++ {
								if len(got) != world || !bytes.Equal(got[r], gatherPayload(r, it)) {
									t.Errorf("rank 0 gather %d: rank %d's bytes wrong (%d bundles)", it, r, len(got))
									break
								}
							}
							for j := range m.Data() {
								m.Data()[j] = float64(it*1000 + j)
							}
							b := c.BroadcastMat(0, m)
							for j, v := range b.Data() {
								if v != float64(it*1000+j) {
									t.Errorf("rank %d broadcast %d: element %d = %g", c.ID(), it, j, v)
									break
								}
							}
						}
					}) {
						t.Errorf("worker error: %v", err)
					}
				}(p)
			}
			wg.Wait()
		})
	}
}
