package dist

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mat"
)

func TestClusterRunAllWorkers(t *testing.T) {
	c := NewCluster(8)
	var n int64
	c.Run(func(w *Worker) { atomic.AddInt64(&n, 1) })
	if n != 8 {
		t.Fatalf("ran %d workers; want 8", n)
	}
}

func TestAllGatherMatOrdering(t *testing.T) {
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		m := mat.NewDense(1, 1)
		m.Set(0, 0, float64(w.Rank))
		parts := w.AllGatherMat(m)
		for r, p := range parts {
			if p.At(0, 0) != float64(r) {
				t.Errorf("rank %d: part[%d] = %g; want %d", w.Rank, r, p.At(0, 0), r)
			}
		}
	})
}

func TestAllGatherRepeatedRounds(t *testing.T) {
	// Slot reuse across rounds must not corrupt earlier reads.
	c := NewCluster(3)
	c.Run(func(w *Worker) {
		for round := 0; round < 20; round++ {
			m := mat.NewDense(1, 1)
			m.Set(0, 0, float64(w.Rank*100+round))
			parts := w.AllGatherMat(m)
			for r, p := range parts {
				want := float64(r*100 + round)
				if p.At(0, 0) != want {
					t.Errorf("round %d rank %d: part[%d] = %g; want %g",
						round, w.Rank, r, p.At(0, 0), want)
					return
				}
			}
		}
	})
}

func TestAllReduceMatSum(t *testing.T) {
	c := NewCluster(5)
	c.Run(func(w *Worker) {
		// 21 elements: five ranks own slices of unequal length.
		m := mat.NewDense(3, 7)
		for i := range m.Data() {
			m.Data()[i] = float64((w.Rank + 1) * (i + 1))
		}
		if sum := w.AllReduceMat(m); sum != m {
			t.Errorf("rank %d: the sum must land in the caller's matrix", w.Rank)
		}
		// (1+2+3+4+5)·(i+1) on every rank, every element.
		for i, v := range m.Data() {
			if want := float64(15 * (i + 1)); v != want {
				t.Errorf("rank %d: sum[%d] = %g; want %g", w.Rank, i, v, want)
				return
			}
		}
	})
}

// TestAllReduceMatCanonical: the in-place sum, each rank folding only its
// own slice, equals CanonicalReduceVecs bit for bit on every rank, for
// every world size and for lengths shorter than the world, not divisible
// by it, empty, and long.
func TestAllReduceMatCanonical(t *testing.T) {
	rng := mat.NewRNG(31)
	for p := 1; p <= 9; p++ {
		for _, n := range []int{0, 1, p - 1, p + 1, 3*p + 2, 1061} {
			inputs := make([][]float64, p)
			for r := range inputs {
				inputs[r] = make([]float64, n)
				for i := range inputs[r] {
					// Magnitudes spread over 2^±20, so the bracketing shows.
					inputs[r][i] = math.Ldexp(rng.Norm(), int(rng.Uint64()%41)-20)
				}
			}
			want := CanonicalReduceVecs(inputs)
			NewCluster(p).Run(func(w *Worker) {
				m := mat.NewDense(1, n)
				copy(m.Data(), inputs[w.Rank])
				w.AllReduceMat(m)
				for i, v := range m.Data() {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						t.Errorf("P=%d n=%d rank %d: sum[%d] = %v; want %v", p, n, w.Rank, i, v, want[i])
						return
					}
				}
			})
		}
	}
}

// TestAllReduceMatAllocationFree: once a rank has its views of the parts, an
// in-process all-reduce allocates nothing on any rank. (AllocsPerRun
// resets GOMAXPROCS, so concurrent ranks cannot each call it.)
func TestAllReduceMatAllocationFree(t *testing.T) {
	const p, runs = 4, 20
	var before, after runtime.MemStats
	NewCluster(p).Run(func(w *Worker) {
		m := mat.NewDense(10, 100)
		m.Fill(1)
		w.AllReduceMat(m) // warm: the views are made on the first call
		w.Barrier()
		if w.Rank == 0 {
			runtime.ReadMemStats(&before)
		}
		w.Barrier()
		for i := 0; i < runs; i++ {
			w.AllReduceMat(m)
		}
		w.Barrier()
		if w.Rank == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if n := (after.Mallocs - before.Mallocs) / runs; n > 0 {
		t.Fatalf("a warmed AllReduceMat on %d ranks allocated %d times per call", p, n)
	}
}

func TestAllReduceScalar(t *testing.T) {
	c := NewCluster(6)
	c.Run(func(w *Worker) {
		if got := w.AllReduceScalar(2.5); got != 15 {
			t.Errorf("rank %d: scalar sum = %g; want 15", w.Rank, got)
		}
	})
}

func TestBroadcast(t *testing.T) {
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		var m *mat.Dense
		if w.Rank == 2 {
			m = mat.NewDenseData(1, 2, []float64{7, 8})
		}
		got := w.Broadcast(2, m)
		if got.At(0, 0) != 7 || got.At(0, 1) != 8 {
			t.Errorf("rank %d: broadcast got %v", w.Rank, got)
		}
		// Writes by non-root receivers must not affect others (clone).
		if w.Rank != 2 {
			got.Set(0, 0, -1)
		}
	})
}

func TestBroadcastDifferentRoots(t *testing.T) {
	c := NewCluster(3)
	c.Run(func(w *Worker) {
		for root := 0; root < 3; root++ {
			var m *mat.Dense
			if w.Rank == root {
				m = mat.NewDense(1, 1)
				m.Set(0, 0, float64(root*10))
			}
			got := w.Broadcast(root, m)
			if got.At(0, 0) != float64(root*10) {
				t.Errorf("rank %d root %d: got %g", w.Rank, root, got.At(0, 0))
				return
			}
		}
	})
}

func TestSingleWorkerCluster(t *testing.T) {
	c := NewCluster(1)
	c.Run(func(w *Worker) {
		m := mat.NewDenseData(1, 1, []float64{3})
		if got := w.AllReduceMat(m); got.At(0, 0) != 3 {
			t.Errorf("P=1 allreduce = %g", got.At(0, 0))
		}
		if got := w.Broadcast(0, m); got.At(0, 0) != 3 {
			t.Errorf("P=1 broadcast = %g", got.At(0, 0))
		}
	})
}

func TestCostModelMonotonicity(t *testing.T) {
	cm := V100Cluster(8)
	if cm.GEMM(512, 512, 512) <= cm.GEMM(128, 128, 128) {
		t.Fatal("GEMM cost not increasing in size")
	}
	if cm.Inverse(2048) <= cm.Inverse(256) {
		t.Fatal("Inverse cost not increasing in size")
	}
	if cm.AllGather(1<<20) <= cm.AllGather(1<<10) {
		t.Fatal("AllGather cost not increasing in size")
	}
}

func TestCostModelCubicScaling(t *testing.T) {
	cm := V100Cluster(8)
	// Doubling n must scale inversion by ≈8× once past fixed overheads.
	r := cm.Inverse(4096) / cm.Inverse(2048)
	if r < 6 || r > 10 {
		t.Fatalf("inverse scaling ratio = %g; want ≈8", r)
	}
}

func TestCostModelCollectivesScaleWithP(t *testing.T) {
	small, big := V100Cluster(4), V100Cluster(64)
	n := 1 << 20
	if big.AllGather(n) <= small.AllGather(n) {
		t.Fatal("AllGather should grow with P for fixed per-worker data")
	}
	if V100Cluster(1).AllReduce(n) != 0 {
		t.Fatal("P=1 collectives must be free")
	}
}

func TestCostModelBroadcastLogScaling(t *testing.T) {
	n := 1 << 20
	t8 := V100Cluster(8).Broadcast(n)
	t64 := V100Cluster(64).Broadcast(n)
	// log2(64)/log2(8) = 2.
	if r := t64 / t8; math.Abs(r-2) > 0.01 {
		t.Fatalf("broadcast scaling = %g; want 2", r)
	}
}

func TestK80SlowerThanV100(t *testing.T) {
	if K80Cluster(8).GEMM(512, 512, 512) <= V100Cluster(8).GEMM(512, 512, 512) {
		t.Fatal("K80 should be slower than V100")
	}
}

func TestTimelineAccumulation(t *testing.T) {
	tl := NewTimeline()
	tl.Add(PhaseGather, 0.5)
	tl.Add(PhaseGather, 0.25)
	tl.Add(PhaseInvert, 1)
	if got := tl.Total(PhaseGather); got != 0.75 {
		t.Fatalf("gather total = %g; want 0.75", got)
	}
	if got := tl.Sum(); got != 1.75 {
		t.Fatalf("sum = %g; want 1.75", got)
	}
	if got := tl.Sum(PhaseGather, PhaseInvert); got != 1.75 {
		t.Fatalf("selective sum = %g; want 1.75", got)
	}
	if got := tl.Count(PhaseGather); got != 2 {
		t.Fatalf("count = %d; want 2", got)
	}
}

// Regression for the telemetry-backed Timeline: hammering Add from many
// plain goroutines (not just cluster workers) must yield exact totals and
// counts. The added values are exactly representable in binary so the sum
// is order-independent; any lost update would show up directly.
func TestTimelineConcurrentExactTotals(t *testing.T) {
	tl := NewTimeline()
	const (
		goroutines = 32
		perG       = 500
		val        = 0.5
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			phase := PhaseFactorize
			if g%2 == 1 {
				phase = PhaseInvert
			}
			for i := 0; i < perG; i++ {
				tl.Add(phase, val)
			}
		}(g)
	}
	wg.Wait()
	wantPer := float64(goroutines/2*perG) * val
	if got := tl.Total(PhaseFactorize); got != wantPer {
		t.Fatalf("factorization total = %g; want %g", got, wantPer)
	}
	if got := tl.Total(PhaseInvert); got != wantPer {
		t.Fatalf("inversion total = %g; want %g", got, wantPer)
	}
	if got := tl.Count(PhaseFactorize); got != goroutines/2*perG {
		t.Fatalf("count = %d; want %d", got, goroutines/2*perG)
	}
	if got := tl.Sum(); got != 2*wantPer {
		t.Fatalf("sum = %g; want %g", got, 2*wantPer)
	}
}

func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline()
	c := NewCluster(8)
	c.Run(func(w *Worker) {
		for i := 0; i < 100; i++ {
			tl.Add(PhaseFactorize, 0.001)
		}
	})
	if got := tl.Count(PhaseFactorize); got != 800 {
		t.Fatalf("concurrent count = %d; want 800", got)
	}
}

// Regression: a worker that clobbers its result as soon as AllReduceMat
// returns must not change any peer's result, and no peer may write into a
// matrix whose call has returned (every write lands before the exit
// barrier). Odd ranks clobber at once; after a barrier even ranks still
// hold the sum and odd ranks still hold their clobber.
func TestAllReduceThenImmediateMutate(t *testing.T) {
	c := NewCluster(8)
	for round := 0; round < 50; round++ {
		c.Run(func(w *Worker) {
			m := mat.NewDense(4, 4)
			m.Fill(float64(w.Rank + 1))
			w.AllReduceMat(m)
			want := 36.0 // 1+2+...+8
			if w.Rank%2 == 1 {
				m.Fill(-999) // immediately clobber the result
				want = -999
			}
			w.Barrier()
			for _, v := range m.Data() {
				if v != want {
					t.Errorf("rank %d: element %g after the barrier; want %g", w.Rank, v, want)
					return
				}
			}
		})
	}
}

// Regression: mutating gathered peer matrices must not affect the owners.
func TestAllGatherMatCopiesPeers(t *testing.T) {
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		m := mat.NewDense(1, 1)
		m.Set(0, 0, float64(w.Rank))
		parts := w.AllGatherMat(m)
		for r, p := range parts {
			if r != w.Rank {
				p.Set(0, 0, -1) // scribble on the copy
			}
		}
		w.Barrier()
		if m.At(0, 0) != float64(w.Rank) {
			t.Errorf("rank %d: own matrix corrupted to %g", w.Rank, m.At(0, 0))
		}
	})
}

func TestStragglerModel(t *testing.T) {
	rng := mat.NewRNG(130)
	s := NewStragglerModel(V100Cluster(16), 0.2, rng)
	if len(s.Slowdowns) != 16 {
		t.Fatalf("slowdowns = %d; want 16", len(s.Slowdowns))
	}
	for _, v := range s.Slowdowns {
		if v < 1 {
			t.Fatalf("slowdown %g below 1", v)
		}
	}
	if s.MaxSlowdown() < 1 {
		t.Fatal("max slowdown below 1")
	}
	// Step time with stragglers ≥ ideal; efficiency in (0, 1].
	compute, comm := 0.01, 0.002
	if s.StepTime(compute, comm) < compute+comm {
		t.Fatal("straggled step faster than ideal")
	}
	eff := s.Efficiency(compute, comm)
	if eff <= 0 || eff > 1 {
		t.Fatalf("efficiency %g out of range", eff)
	}
	// Zero jitter = no loss.
	s0 := NewStragglerModel(V100Cluster(8), 0, rng)
	if e := s0.Efficiency(compute, comm); e != 1 {
		t.Fatalf("zero-jitter efficiency = %g; want 1", e)
	}
	// Communication-dominated workloads lose less to stragglers.
	effComm := s.Efficiency(0.001, 0.1)
	effComp := s.Efficiency(0.1, 0.001)
	if effComm <= effComp {
		t.Fatalf("comm-bound efficiency %g should exceed compute-bound %g", effComm, effComp)
	}
}

// TestLocalCommInPlace pins the satellite fix: the single-worker
// all-reduce returns its input rather than a clone.
func TestLocalCommInPlace(t *testing.T) {
	l := Local()
	m := mat.NewDense(3, 3)
	if got := l.AllReduceMat(m); got != m {
		t.Fatal("localComm.AllReduceMat should be in place")
	}
	if got := l.BroadcastMat(0, m); got != m {
		t.Fatal("localComm.BroadcastMat should be in place")
	}
	if parts := l.AllGatherMat(m); len(parts) != 1 || parts[0] != m {
		t.Fatal("localComm.AllGatherMat should share the input")
	}
}

// TestGatherBytesRootOnly: the in-process gather hands rank 0 every
// rank's bytes in rank order — its peers' own slices, uncopied — and
// every other rank nil.
func TestGatherBytesRootOnly(t *testing.T) {
	const p = 3
	sent := make([][]byte, p)
	got := make([][][]byte, p)
	NewCluster(p).Run(func(w *Worker) {
		sent[w.Rank] = []byte{byte(w.Rank), 7, byte(w.Rank)}
		got[w.Rank] = w.GatherBytes(sent[w.Rank])
	})
	for r := 1; r < p; r++ {
		if got[r] != nil {
			t.Errorf("rank %d got %d bundles, want nil", r, len(got[r]))
		}
	}
	if len(got[0]) != p {
		t.Fatalf("rank 0 got %d bundles, want %d", len(got[0]), p)
	}
	for r, b := range got[0] {
		if &b[0] != &sent[r][0] || len(b) != len(sent[r]) {
			t.Errorf("rank 0's bundle %d is not rank %d's slice", r, r)
		}
	}
}
