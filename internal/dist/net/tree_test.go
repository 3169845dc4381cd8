package distnet

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
)

// reassemble folds per-rank vectors through the engine's chunked
// segment-merge step without sockets, inserting each chunk's per-rank
// singleton segments in the arrival order given by perm (a permutation of
// rank indices), and returns the reassembled full vector. It fails the
// test if any chunk does not converge to the single [0, world) segment.
func reassemble(t testing.TB, world, chunkElems int, vecs [][]float64, perm []int) []float64 {
	t.Helper()
	elems := len(vecs[0])
	nChunks := 1
	if elems > chunkElems {
		nChunks = (elems + chunkElems - 1) / chunkElems
	}
	out := make([]float64, elems)
	for ci := 0; ci < nChunks; ci++ {
		lo := ci * chunkElems
		hi := lo + chunkLen(elems, chunkElems, ci)
		var segs []seg
		for _, r := range perm {
			segs = insertSeg(world, true, segs, seg{lo: r, hi: r + 1, f: append([]float64(nil), vecs[r][lo:hi]...)})
		}
		if len(segs) != 1 || segs[0].lo != 0 || segs[0].hi != world {
			t.Fatalf("world=%d chunk=%d: %d segments remain (want single [0,%d))",
				world, ci, len(segs), world)
		}
		copy(out[lo:hi], segs[0].f)
	}
	return out
}

// TestTreeReductionCanonicalProperty: across 100 seeded random shapes,
// the chunked segment-merge fold is a pure function of (world size,
// payload length) — bit-identical to dist.CanonicalReduceVecs no matter
// the chunk size or the order segments arrive in.
func TestTreeReductionCanonicalProperty(t *testing.T) {
	rng := mat.NewRNG(20260809)
	for trial := 0; trial < 100; trial++ {
		world := 1 + int(rng.Uint64()%12)
		elems := 1 + int(rng.Uint64()%97)
		chunkElems := 1 + int(rng.Uint64()%uint64(elems+3))

		vecs := make([][]float64, world)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				vecs[r][i] = rng.Norm() * float64(1+i%5)
			}
		}
		want := dist.CanonicalReduceVecs(vecs)

		// Three arrival orders per shape: forward, reverse, and a seeded
		// shuffle. All must land on identical bits.
		orders := [][]int{make([]int, world), make([]int, world), make([]int, world)}
		for i := 0; i < world; i++ {
			orders[0][i] = i
			orders[1][i] = world - 1 - i
			orders[2][i] = i
		}
		for i := world - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			orders[2][i], orders[2][j] = orders[2][j], orders[2][i]
		}
		for oi, perm := range orders {
			got := reassemble(t, world, chunkElems, vecs, perm)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d order %d (world=%d elems=%d chunk=%d): element %d = %x, want %x",
						trial, oi, world, elems, chunkElems, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}

		// Chunk size must never change bits: recompute with a different
		// chunking and compare against the same reference.
		alt := 1 + int(rng.Uint64()%uint64(elems))
		got := reassemble(t, world, alt, vecs, orders[2])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d chunk=%d vs %d: element %d differs", trial, chunkElems, alt, i)
			}
		}
	}
}

// TestCollectiveScratchPooled asserts the per-collective wire scratch is
// recycled: after a warm-up, a long run of steady-state allreduces must
// not grow the mat pool miss counter (encode buffers, decode vectors, and
// tree segment buffers all come back to the pools), under both
// topologies. GC is disabled during the measured window so sync.Pool
// evictions cannot masquerade as leaks.
func TestCollectiveScratchPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts by design; miss counts are not meaningful")
	}
	for _, topo := range topologies {
		t.Run(topo, func(t *testing.T) {
			cfg := testConfig(2)
			cfg.Topology = topo
			procs := startCluster(t, cfg, 1, 1)

			run := func(iters int) {
				done := make(chan struct{}, len(procs))
				for _, p := range procs {
					go func(p *Proc) {
						p.Run(func(c dist.Comm) {
							m := mat.NewDense(32, 32)
							d := m.Data()
							for i := range d {
								d[i] = float64(c.ID() + i)
							}
							for it := 0; it < iters; it++ {
								c.AllReduceMat(m)
								c.AllReduceScalar(float64(it))
							}
						})
						done <- struct{}{}
					}(p)
				}
				for range procs {
					<-done
				}
			}

			run(50) // fill every pool bucket the path touches
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			_, miss0 := mat.PoolStats()
			run(100)
			_, miss1 := mat.PoolStats()
			if d := miss1 - miss0; d > 8 {
				t.Fatalf("%s: pool misses grew by %d across 200 steady-state collectives; wire scratch is not being recycled", topo, d)
			}
		})
	}
}

// TestReduceSplitProperties pins the canonical bracketing primitives: the
// split point is the largest power of two strictly inside the range, every
// canonical node splits into two canonical children, and CanMergeSegments
// accepts exactly the sibling pairs the descent generates.
func TestReduceSplitProperties(t *testing.T) {
	for world := 2; world <= 64; world++ {
		if !dist.IsReduceNode(world, 0, world) {
			t.Fatalf("world %d: root is not a node", world)
		}
		var walk func(lo, hi int)
		walk = func(lo, hi int) {
			if hi-lo < 2 {
				return
			}
			mid := dist.ReduceSplit(lo, hi)
			if mid <= lo || mid >= hi {
				t.Fatalf("split(%d,%d) = %d out of range", lo, hi, mid)
			}
			if !dist.IsReduceNode(world, lo, mid) || !dist.IsReduceNode(world, mid, hi) {
				t.Fatalf("world %d: children of [%d,%d) at %d are not nodes", world, lo, hi, mid)
			}
			if !dist.CanMergeSegments(world, lo, mid, hi) {
				t.Fatalf("world %d: sibling pair [%d,%d)+[%d,%d) rejected", world, lo, mid, mid, hi)
			}
			// Any other interior cut of this node must be rejected.
			for cut := lo + 1; cut < hi; cut++ {
				if cut != mid && dist.CanMergeSegments(world, lo, cut, hi) {
					t.Fatalf("world %d: non-canonical cut [%d,%d,%d) accepted", world, lo, cut, hi)
				}
			}
			walk(lo, mid)
			walk(mid, hi)
		}
		walk(0, world)
	}
}

// FuzzChunkReassembly drives the chunked fold with fuzzer-chosen shapes
// and float payload bytes: whatever the chunking and arrival order, the
// reassembled bits must equal the canonical reference, and no shape may
// panic or fail to converge. Inputs are sanitized to finite floats —
// IEEE addition is bit-deterministic on finite operands (including
// denormals), but NaN payload propagation is hardware- and
// compiler-defined and therefore outside the parity contract.
func FuzzChunkReassembly(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint64(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), uint8(3), uint64(42), []byte{0xff, 0xf8, 0, 0, 0, 0, 0, 1, 9, 9})
	f.Add(uint8(1), uint8(1), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, worldB, chunkB uint8, seed uint64, raw []byte) {
		world := 1 + int(worldB)%12
		chunkElems := 1 + int(chunkB)%64
		elems := 1 + len(raw)/8%64

		rng := mat.NewRNG(seed | 1)
		vecs := make([][]float64, world)
		for r := range vecs {
			vecs[r] = make([]float64, elems)
			for i := range vecs[r] {
				// Mix raw fuzz bytes into the payload so adversarial bit
				// patterns (NaNs, infs, denormals) flow through the fold.
				var bits uint64
				for k := 0; k < 8; k++ {
					idx := r*elems*8 + i*8 + k
					if len(raw) > 0 {
						bits = bits<<8 | uint64(raw[idx%len(raw)])
					}
				}
				v := math.Float64frombits(bits ^ rng.Uint64())
				if math.IsNaN(v) || math.IsInf(v, 0) {
					// Keep the adversarial mantissa, drop the exponent into
					// finite range.
					v = math.Float64frombits((bits ^ rng.Uint64()) & ^uint64(0x7ff0000000000000))
				}
				vecs[r][i] = v
			}
		}
		want := dist.CanonicalReduceVecs(vecs)

		perm := make([]int, world)
		for i := range perm {
			perm[i] = i
		}
		for i := world - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			perm[i], perm[j] = perm[j], perm[i]
		}
		got := reassemble(t, world, chunkElems, vecs, perm)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("world=%d elems=%d chunk=%d: element %d = %x, want %x",
					world, elems, chunkElems, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestTreeRetransmitOwnsItsFrames pins the engine's ownership rule for
// pooled up payloads: the retransmit tick stages its writes under the lock
// and performs them after unlocking, so a collective that finishes in
// between must not hand the payload back to the pool — the next collective
// (same shape, so the same pool bucket) would encode into bytes a socket
// write is still reading. A 3 ms tick, many small collectives and
// drop/dup/delay faults (a delayed write sits on its staged payloads
// before reading them) make that interleaving certain; the race detector
// is the assertion, parity the sanity check.
func TestTreeRetransmitOwnsItsFrames(t *testing.T) {
	cfg := testConfig(3)
	cfg.Topology = TopologyTree
	cfg.RetransmitEvery = 3 * time.Millisecond
	cfg.Faults = &SocketFaultPlan{Seed: 3, DropProb: 0.2, DupProb: 0.2, DelayProb: 0.3, Delay: 2 * time.Millisecond}
	procs := startCluster(t, cfg, 1, 1, 1)

	iters := 100
	if raceEnabled {
		iters = 800 // 400 on an engine without the rule trip the detector 9 runs in 10
	}
	fn := func(c dist.Comm) []uint64 {
		var out []uint64
		m := mat.NewDense(8, 8)
		for it := 0; it < iters; it++ {
			for i := range m.Data() {
				m.Data()[i] = float64(c.ID()*1000+it) + float64(i)/7
			}
			out = append(out, math.Float64bits(c.AllReduceMat(m).Data()[it%64]))
		}
		return out
	}
	got := make([][]uint64, 3)
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			for _, err := range p.Run(func(c dist.Comm) { got[c.ID()] = fn(c) }) {
				t.Errorf("worker error: %v", err)
			}
		}(p)
	}
	wg.Wait()
	want := make([][]uint64, 3)
	dist.NewCluster(3).Run(func(w *dist.Worker) { want[w.Rank] = fn(w) })
	compareTraces(t, "retransmit-stress", got, want)
}
