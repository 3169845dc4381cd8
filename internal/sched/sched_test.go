package sched

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
)

// withWorkers runs fn with the scheduler configured for n stage workers and
// GOMAXPROCS procs, restoring both afterwards (the token pool is rebuilt by
// SetWorkers, so restore order matters: procs first, then workers).
func withWorkers(t *testing.T, n, procs int, fn func()) {
	t.Helper()
	oldProcs := runtime.GOMAXPROCS(procs)
	oldWorkers := Workers()
	SetWorkers(n)
	defer func() {
		runtime.GOMAXPROCS(oldProcs)
		SetWorkers(oldWorkers)
	}()
	fn()
}

// trace records stage executions; safe for concurrent append because every
// recording site is serialized by design (Run's caller, Ordered stage) or
// guarded by its own mutex.
type trace struct {
	mu sync.Mutex
	ev []string
}

func (tr *trace) add(ev string) {
	tr.mu.Lock()
	tr.ev = append(tr.ev, ev)
	tr.mu.Unlock()
}

func pipelineStages(comm *trace, perLayer []*trace) []Stage {
	return []Stage{
		{Name: "factor", Fn: func(i int) { perLayer[i].add("factor") }},
		{Name: "gather", Comm: true, Fn: func(i int) { comm.add(fmt.Sprintf("g%d", i)) }},
		{Name: "solve", Fn: func(i int) { perLayer[i].add("solve") }},
		{Name: "bcast", Comm: true, Fn: func(i int) { comm.add(fmt.Sprintf("b%d", i)) }},
		{Name: "store", Fn: func(i int) { perLayer[i].add("store") }},
	}
}

func checkCanonical(t *testing.T, n int, comm *trace, perLayer []*trace) {
	t.Helper()
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("g%d", i))
	}
	for i := 0; i < n; i++ {
		want = append(want, fmt.Sprintf("b%d", i))
	}
	if len(comm.ev) != len(want) {
		t.Fatalf("comm sequence %v, want %v", comm.ev, want)
	}
	for k := range want {
		if comm.ev[k] != want[k] {
			t.Fatalf("comm sequence %v, want %v", comm.ev, want)
		}
	}
	for i, tr := range perLayer {
		if len(tr.ev) != 3 || tr.ev[0] != "factor" || tr.ev[1] != "solve" || tr.ev[2] != "store" {
			t.Fatalf("layer %d stage order %v", i, tr.ev)
		}
	}
}

// TestRunCanonicalCommOrder: at one worker and at four Run's caller must
// issue collectives in the same stage-major canonical order (all gathers in
// layer order, then all broadcasts) with per-layer compute stages in
// pipeline order.
func TestRunCanonicalCommOrder(t *testing.T) {
	const n = 5
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withWorkers(t, workers, 4, func() {
				var comm trace
				perLayer := make([]*trace, n)
				for i := range perLayer {
					perLayer[i] = &trace{}
				}
				var e Engine
				Run(&e, n, pipelineStages(&comm, perLayer))
				checkCanonical(t, n, &comm, perLayer)
			})
		})
	}
}

// TestRunEngineReuse: consecutive Runs on one engine must reset the done
// matrix, including after a shape change.
func TestRunEngineReuse(t *testing.T) {
	withWorkers(t, 4, 4, func() {
		var e Engine
		for _, n := range []int{4, 4, 7, 2} {
			var comm trace
			perLayer := make([]*trace, n)
			for i := range perLayer {
				perLayer[i] = &trace{}
			}
			Run(&e, n, pipelineStages(&comm, perLayer))
			checkCanonical(t, n, &comm, perLayer)
		}
	})
}

// TestRunOrderedStage: an Ordered stage must execute in ascending layer
// order even with many workers — the guarantee shared-RNG stages rely on.
func TestRunOrderedStage(t *testing.T) {
	const n = 8
	withWorkers(t, 4, 4, func() {
		var got []int // appended only from the Ordered stage, serialized by design
		stages := []Stage{
			{Name: "sketch", Ordered: true, Fn: func(i int) { got = append(got, i) }},
			{Name: "solve", Fn: func(i int) {}},
		}
		var e Engine
		Run(&e, n, stages)
		if len(got) != n {
			t.Fatalf("ordered stage ran %d times, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("ordered stage sequence %v", got)
			}
		}
	})
}

// TestRunCommBlocksComputeProceeds: a comm stage blocks the dispatcher,
// not the compute stages. At one worker, layer 1's collective can only
// return once layer 0's solve has run, which holds only if the solve runs
// while the dispatcher is parked in that collective.
func TestRunCommBlocksComputeProceeds(t *testing.T) {
	withWorkers(t, 1, 1, func() {
		solved := make(chan struct{})
		stages := []Stage{
			{Name: "factor", Fn: func(i int) {}},
			{Name: "gather", Comm: true, Fn: func(i int) {
				if i != 1 {
					return
				}
				select {
				case <-solved:
				case <-time.After(10 * time.Second):
					t.Error("layer 1's gather was still blocked after 10s: layer 0's solve never ran")
				}
			}},
			{Name: "solve", Fn: func(i int) {
				if i == 0 {
					close(solved)
				}
			}},
		}
		var e Engine
		Run(&e, 3, stages)
	})
}

// TestRunPanicPropagates: a panic in any stage aborts the pipeline and
// re-raises on the caller; the engine stays usable afterwards.
func TestRunPanicPropagates(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withWorkers(t, workers, 4, func() {
				var e Engine
				stages := []Stage{
					{Name: "ok", Fn: func(i int) {}},
					{Name: "boom", Fn: func(i int) {
						if i == 3 {
							panic("stage failure")
						}
					}},
				}
				func() {
					defer func() {
						if r := recover(); r != "stage failure" {
							t.Errorf("recovered %v, want stage failure", r)
						}
					}()
					Run(&e, n, stages)
					t.Error("Run should have panicked")
				}()
				// Engine must recover for the next update.
				ran := 0
				var mu sync.Mutex
				Run(&e, n, []Stage{{Name: "ok", Fn: func(i int) {
					mu.Lock()
					ran++
					mu.Unlock()
				}}})
				if ran != n {
					t.Fatalf("post-failure run executed %d layers, want %d", ran, n)
				}
			})
		})
	}
}

// TestRunCommPanicAborts: a panic raised in a collective (on Run's caller)
// must abort compute workers blocked on later stages instead of
// deadlocking.
func TestRunCommPanicAborts(t *testing.T) {
	const n = 4
	withWorkers(t, 4, 4, func() {
		var e Engine
		stages := []Stage{
			{Name: "factor", Fn: func(i int) {}},
			{Name: "gather", Comm: true, Fn: func(i int) {
				if i == 1 {
					panic("comm failure")
				}
			}},
			{Name: "solve", Fn: func(i int) {}},
		}
		defer func() {
			if r := recover(); r != "comm failure" {
				t.Errorf("recovered %v, want comm failure", r)
			}
		}()
		Run(&e, n, stages)
		t.Error("Run should have panicked")
	})
}

// TestTokenBudget: nested parallelism — stage workers plus the parallel GEMM
// they invoke — must never exceed the shared pool's capacity, and mat's
// kernels must draw their extra workers from this pool (the limiter wiring).
func TestTokenBudget(t *testing.T) {
	withWorkers(t, 4, 8, func() {
		p := Tokens()
		if p.Cap() != 8 {
			t.Fatalf("pool cap %d, want max(workers, GOMAXPROCS) = 8", p.Cap())
		}

		// Solo GEMM: with all tokens free, the packed kernel must borrow
		// extra workers from the scheduler pool — proof of the wiring.
		a := mat.NewDense(192, 192)
		b := mat.NewDense(192, 192)
		dst := mat.NewDense(192, 192)
		for i := range a.Data() {
			a.Data()[i] = float64(i % 7)
			b.Data()[i] = float64(i % 5)
		}
		mat.MulInto(dst, a, b)
		if p.HighWater() < 2 {
			t.Fatalf("solo GEMM high-water %d: mat did not borrow from the scheduler pool", p.HighWater())
		}
		if p.InUse() != 0 {
			t.Fatalf("tokens leaked: %d in use after solo GEMM", p.InUse())
		}

		// Stage workers running GEMMs concurrently: the combined worker count
		// is bounded by the pool capacity. Each layer writes its own output.
		dsts := make([]*mat.Dense, 8)
		for i := range dsts {
			dsts[i] = mat.NewDense(192, 192)
		}
		var e Engine
		stages := []Stage{
			{Name: "gemm", Fn: func(i int) { mat.MulInto(dsts[i], a, b) }},
			{Name: "gemm2", Fn: func(i int) { mat.GramInto(dsts[i], a) }},
		}
		Run(&e, 8, stages)
		if hw := p.HighWater(); hw > p.Cap() {
			t.Fatalf("high-water %d exceeds pool capacity %d", hw, p.Cap())
		}
		if p.InUse() != 0 {
			t.Fatalf("tokens leaked: %d in use after pipeline", p.InUse())
		}
	})
}

// TestRunWithEveryTokenHeld: with every pool token held elsewhere, a Run at
// four workers must still finish — worker 0 runs on the caller's budget,
// and no stage waits for a token.
func TestRunWithEveryTokenHeld(t *testing.T) {
	withWorkers(t, 4, 4, func() {
		p := Tokens()
		held := p.TryAcquire(p.Cap())
		defer p.Release(held)
		if held != p.Cap() {
			t.Fatalf("held %d of %d tokens", held, p.Cap())
		}
		var comm trace
		perLayer := make([]*trace, 6)
		for i := range perLayer {
			perLayer[i] = &trace{}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			var e Engine
			Run(&e, len(perLayer), pipelineStages(&comm, perLayer))
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run was still blocked after 10s with every token held")
		}
		checkCanonical(t, len(perLayer), &comm, perLayer)
	})
}

// TestRunAllocs pins what a warmed Run allocates: nothing for a
// compute-only graph at one worker, and one goroutine per worker it starts
// otherwise — worker 0 when the caller is in the collectives, plus the
// helpers.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on goroutine starts")
	}
	nop := func(int) {}
	compute := []Stage{{Name: "a", Fn: nop}, {Name: "b", Ordered: true, Fn: nop}}
	withComm := []Stage{{Name: "a", Fn: nop}, {Name: "c", Comm: true, Fn: nop}, {Name: "b", Fn: nop}}
	for _, tc := range []struct {
		name       string
		workers, n int
		stages     []Stage
		want       float64
	}{
		{"compute/w1/n8", 1, 8, compute, 0},
		{"comm/w1/n1", 1, 1, withComm, 1},
		{"comm/w1/n8", 1, 8, withComm, 1},
		{"comm/w2/n8", 2, 8, withComm, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withWorkers(t, tc.workers, 2, func() {
				var e Engine
				got := testing.AllocsPerRun(100, func() { Run(&e, tc.n, tc.stages) })
				if got > tc.want {
					t.Fatalf("a warmed Run allocates %v, want ≤ %v", got, tc.want)
				}
			})
		})
	}
}
