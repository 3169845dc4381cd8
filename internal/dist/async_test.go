package dist

import (
	"testing"

	"repro/internal/mat"
)

func TestAsyncLocalInline(t *testing.T) {
	a := Async(Local())
	m := mat.NewDense(2, 2)
	m.Set(0, 0, 3)
	gf := &GatherFuture{}
	a.StartAllGatherMat(gf, m)
	parts := gf.Wait()
	if len(parts) != 1 || parts[0].At(0, 0) != 3 {
		t.Fatalf("inline gather wrong: %v", parts)
	}
	rf := &MatFuture{}
	a.StartAllReduceMat(rf, m)
	if got := rf.Wait(); got != m {
		t.Fatal("local async all-reduce should return the input in place")
	}
	bf := &MatFuture{}
	a.StartBroadcastMat(bf, 0, m)
	if got := bf.Wait(); got != m {
		t.Fatal("local async broadcast should return the input")
	}
	// Inline futures resolve at submit: no channel is armed.
	if gf.done != nil || rf.done != nil || bf.done != nil {
		t.Fatal("inline futures should resolve without a channel")
	}
}

func TestAsyncLocalAllocationFree(t *testing.T) {
	a := Async(Local())
	m := mat.NewDense(4, 4)
	var gf GatherFuture
	var rf, bf MatFuture
	allocs := testing.AllocsPerRun(100, func() {
		a.StartAllReduceMat(&rf, m)
		rf.Wait()
		a.StartBroadcastMat(&bf, 0, m)
		bf.Wait()
	})
	if allocs > 0 {
		t.Fatalf("local reduce/broadcast Start/Wait allocated %.1f times per run", allocs)
	}
	// The gather's one allocation is the per-rank result slice the Comm
	// API returns — inherent to the call shape, not async overhead.
	allocs = testing.AllocsPerRun(100, func() {
		a.StartAllGatherMat(&gf, m)
		gf.Wait()
	})
	if allocs > 1 {
		t.Fatalf("local gather Start/Wait allocated %.1f times per run", allocs)
	}
}

// TestAsyncMatchesBlocking checks that async collectives on a real cluster
// produce exactly the blocking results, with FIFO submission order.
func TestAsyncMatchesBlocking(t *testing.T) {
	const p = 4
	c := NewCluster(p)
	c.Run(func(w *Worker) {
		a := Async(w)
		m := mat.NewDense(2, 3)
		for i := range m.Data() {
			m.Data()[i] = float64(w.Rank + i)
		}
		// Submit a pipeline of ops before waiting any of them.
		gf := &GatherFuture{}
		a.StartAllGatherMat(gf, m)
		rf := &MatFuture{}
		a.StartAllReduceMat(rf, m)
		bf := &MatFuture{}
		a.StartBroadcastMat(bf, 1, m)

		parts := gf.Wait()
		for r := 0; r < p; r++ {
			if got, want := parts[r].At(0, 1), float64(r+1); got != want {
				t.Errorf("rank %d: gather part %d = %g, want %g", w.Rank, r, got, want)
			}
		}
		sum := rf.Wait()
		// Element (0,1): sum over ranks of (rank+1) = 1+2+3+4.
		if got := sum.At(0, 1); got != 10 {
			t.Errorf("rank %d: reduce = %g, want 10", w.Rank, got)
		}
		b := bf.Wait()
		if got := b.At(0, 0); got != 1 {
			t.Errorf("rank %d: broadcast = %g, want 1", w.Rank, got)
		}
		if gf.Dur() < 0 || rf.Dur() < 0 {
			t.Errorf("rank %d: negative durations", w.Rank)
		}
	})
}

// TestAsyncComposesWithWrappers runs async collectives through the
// checked-sequence and chaos wrappers: the sequence validator must see
// matching per-rank sequences, and delay/bit-flip draws must not corrupt
// the FIFO ordering guarantees.
func TestAsyncComposesWithWrappers(t *testing.T) {
	const p = 2
	c := NewCluster(p)
	seq := NewSeqChecker(func(msg string) { t.Errorf("unexpected mismatch: %s", msg) })
	plan := FaultPlan{Seed: 9, PanicStep: -1, StragglerProb: 0.5, StragglerDelay: 100}
	c.Run(func(w *Worker) {
		a := Async(NewFaultInjector(seq.Check(w), plan))
		if _, ok := AsBarrier(a); !ok {
			t.Error("AsBarrier should unwrap AsyncComm chains")
		}
		m := mat.NewDense(1, 1)
		m.Set(0, 0, float64(w.Rank))
		gf := &GatherFuture{}
		a.StartAllGatherMat(gf, m)
		bf := &MatFuture{}
		a.StartBroadcastMat(bf, 0, m)
		if parts := gf.Wait(); parts[1].At(0, 0) != 1 {
			t.Errorf("rank %d: gather through wrappers wrong", w.Rank)
		}
		if got := bf.Wait().At(0, 0); got != 0 {
			t.Errorf("rank %d: broadcast through wrappers = %g", w.Rank, got)
		}
	})
}

// TestAsyncPanicPropagation: a poisoned barrier inside an async collective
// must surface as a panic on the waiter, not a hang or a lost error.
func TestAsyncPanicPropagation(t *testing.T) {
	const p = 2
	c := NewCluster(p)
	var wg0 panicRecorder
	c.Run(func(w *Worker) {
		if w.Rank == 0 {
			// Rank 0 dies before participating; recover and poison like
			// RunWithRecovery does.
			defer func() {
				recover()
				c.barrier.poison()
			}()
			panic("injected death")
		}
		a := Async(w)
		f := &GatherFuture{}
		a.StartAllGatherMat(f, mat.NewDense(1, 1))
		defer func() {
			if r := recover(); r == nil {
				t.Error("waiter should re-panic on poisoned barrier")
			} else {
				wg0.val = r
			}
		}()
		f.Wait()
	})
	if wg0.val != ErrClusterPoisoned {
		t.Fatalf("expected ErrClusterPoisoned, got %v", wg0.val)
	}
}

type panicRecorder struct{ val any }

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
