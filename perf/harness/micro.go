package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/sched"
	"repro/internal/serve/queue"
)

// Kernel sizes of the mat microbenches. 256 is the deep task's batch and
// width, so these are the shapes core and kfac hand to mat there.
const (
	gemmN   = 512
	kernelN = 256
	idRank  = 25 // 10 % of the deep task's global batch, the KID rank
)

// Computed floating-point operations per kernel call, for reading the
// timings as rates: GEMM 2n³; kernel matrix (a aᵀ ∘ g gᵀ) 2·2n³ + n²;
// Householder QR with pivoting ≈ 4n³/3; SPD inverse ≈ n³; symmetric
// eigendecomposition ≈ 9n³.
const gemmFlops = 2 * gemmN * gemmN * gemmN

// kernelBenches times the mat kernels the preconditioners are built on.
// They need no workload state, so every workload reports them; a change in
// one between two workloads of the same run is machine noise.
func kernelBenches(r *Result, reps int) {
	rng := mat.NewRNG(12345)
	a := mat.RandN(rng, gemmN, gemmN, 1)
	b := mat.RandN(rng, gemmN, gemmN, 1)
	dst := mat.NewDense(gemmN, gemmN)
	r.Set("mat.gemm512_gflops", gemmFlops/1e6/medianMs(reps, func() { mat.MulInto(dst, a, b) }), reps)

	x := mat.RandN(rng, kernelN, kernelN, 1)
	g := mat.RandN(rng, kernelN, kernelN, 1)
	q := mat.KernelMatrix(x, g)
	r.Set("mat.kernelmatrix256_ms", medianMs(reps, func() { mat.KernelMatrix(x, g) }), reps)
	r.Set("mat.qrpivot256_ms", medianMs(reps, func() { mat.FactorQRPivot(q) }), reps)
	r.Set("mat.id256_ms", medianMs(reps, func() { mat.InterpolativeDecomp(q, idRank) }), reps)
	r.Set("mat.randid_srht256_ms", medianMs(reps, func() {
		mat.RandomizedIDInto(nil, nil, rng, q, idRank, 8, mat.SketchSRHT)
	}), reps)

	spd := mat.GramT(x) // xᵀx + n·I is well conditioned
	for i := 0; i < kernelN; i++ {
		spd.Set(i, i, spd.At(i, i)+kernelN)
	}
	r.Set("mat.invspd256_ms", medianMs(reps, func() { _, _ = mat.InvSPD(spd) }), reps)
	r.Set("mat.symeig256_ms", medianMs(reps, func() { mat.SymEig(spd) }), reps)
}

// controlBenches times the control-plane pieces that have a direct entry
// point: the stage scheduler's fixed cost and the job queue.
func controlBenches(r *Result, reps int) {
	// sched.Run over 8 layers × 4 no-op stages, one of them ordered: the
	// cost the scheduler adds to an Update that did no work.
	stages := []sched.Stage{
		{Name: "a", Fn: func(int) {}}, {Name: "b", Ordered: true, Fn: func(int) {}},
		{Name: "c", Fn: func(int) {}}, {Name: "d", Fn: func(int) {}},
	}
	var eng sched.Engine
	const runs = 200
	r.Set("sched.run_overhead_us", 1e3*medianMs(reps, func() {
		for i := 0; i < runs; i++ {
			sched.Run(&eng, 8, stages)
		}
	})/runs, reps*runs)

	q := queue.New[int](queue.Config{})
	const ops = 20000
	r.Set("serve_queue.push_pop_ns", 1e6*medianMs(reps, func() {
		for i := 0; i < ops; i++ {
			if err := q.Push("t", 1, i); err != nil {
				panic(fmt.Sprintf("harness: queue push: %v", err)) // an empty queue cannot be over quota
			}
			_, tenant, _ := q.Pop()
			q.Done(tenant)
		}
	})/ops, reps*ops)
}

// ckptBench loads the newest checkpoint the run produced and re-saves it
// through a fresh Manager in scratch.
func ckptBench(r *Result, ckptDir, scratch string, reps int) error {
	src, err := ckpt.NewManager(ckptDir, 0)
	if err != nil {
		return fmt.Errorf("ckpt bench: %w", err)
	}
	paths, err := src.List()
	if err != nil || len(paths) == 0 {
		return fmt.Errorf("ckpt bench: no checkpoint in %s (%v)", ckptDir, err)
	}
	path := paths[len(paths)-1]
	fi, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("ckpt bench: %w", err)
	}
	var snap *ckpt.Snapshot
	var loadErr error
	r.Set("ckpt.load_ms", medianMs(reps, func() { snap, loadErr = ckpt.Load(path) }), reps)
	if loadErr != nil {
		return fmt.Errorf("ckpt bench: load: %w", loadErr)
	}
	dst, err := ckpt.NewManager(filepath.Join(scratch, "resave"), 0)
	if err != nil {
		return fmt.Errorf("ckpt bench: %w", err)
	}
	var saveErr error
	r.Set("ckpt.save_ms", medianMs(reps, func() {
		if _, err := dst.Save(snap); err != nil {
			saveErr = err
		}
	}), reps)
	if saveErr != nil {
		return fmt.Errorf("ckpt bench: save: %w", saveErr)
	}
	r.Set("ckpt.bytes", float64(fi.Size()), 1)
	return nil
}

// netAllReduceUs is the median time of one all-reduce of elems float64s
// across two single-rank Procs on loopback under the given topology.
func netAllReduceUs(spec TrainSpec, seed uint64, topology string, elems, iters int) (float64, error) {
	cl, err := newCluster(spec, seed, topology)
	if err != nil {
		return 0, err
	}
	defer cl.close()
	var us []float64
	err = cl.run(func(c dist.Comm) {
		m := mat.NewDense(1, elems)
		for i := range m.Data() {
			m.Data()[i] = float64(c.ID() + i)
		}
		for i := 0; i < 2+iters; i++ {
			t0 := time.Now()
			c.AllReduceMat(m)
			if c.ID() == 0 && i >= 2 {
				us = append(us, float64(time.Since(t0))/1e3)
			}
		}
	})
	return Median(us), err
}
