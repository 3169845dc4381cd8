package dist

import "math"

// CostModel is the analytic performance model that stands in for the
// paper's V100/K80 clusters (DESIGN.md §2). Computation is costed at an
// effective FLOP rate with a memory-bandwidth floor; communication uses the
// α-β model with ring-collective message schedules, matching NCCL's
// algorithms. Times are in seconds.
//
// The model is analytic only, but the TCP transport realizes the same
// logarithmic-depth schedule shape in real sockets: with
// -net-topology=tree (internal/dist/net, DESIGN.md §5j) an allreduce
// ascends and descends a binary member tree in chunk-pipelined stages,
// so per-process wire volume is O(n·fan-in) rather than the hub's
// O(P·n) coordinator ingress this model would charge a star topology.
type CostModel struct {
	// Workers is the number of GPUs P.
	Workers int
	// FlopRate is the effective dense-GEMM rate per worker, FLOP/s.
	FlopRate float64
	// SmallOpRate discounts small/irregular kernels (factorizations,
	// eigen-decompositions) relative to GEMM, FLOP/s.
	SmallOpRate float64
	// KernelLaunch is fixed per-operation overhead, seconds.
	KernelLaunch float64
	// Alpha is per-message latency, seconds.
	Alpha float64
	// Beta is inverse bandwidth, seconds per byte.
	Beta float64
}

// V100Cluster returns constants resembling the Mist/AWS-P3 systems: V100
// GPUs (effective ~8 TFLOP/s fp32 on large GEMMs, ~0.5 TFLOP/s on
// factorization-style kernels), NVLink within nodes and InfiniBand EDR
// across them folded into a single effective inter-GPU link.
func V100Cluster(p int) CostModel {
	return CostModel{
		Workers:      p,
		FlopRate:     8e12,
		SmallOpRate:  5e11,
		KernelLaunch: 10e-6,
		Alpha:        5e-6,
		Beta:         1.0 / 10e9, // 10 GB/s effective per-link
	}
}

// K80Cluster returns constants resembling the AWS-P2 system (K80s over
// PCIe + Ethernet-class interconnect): ~5× slower compute, ~3× slower
// links.
func K80Cluster(p int) CostModel {
	return CostModel{
		Workers:      p,
		FlopRate:     1.5e12,
		SmallOpRate:  1e11,
		KernelLaunch: 15e-6,
		Alpha:        20e-6,
		Beta:         1.0 / 3e9,
	}
}

const bytesPerFloat = 4 // the real systems communicate fp32 tensors

// GEMM returns the time to multiply (m×k)·(k×n) on one worker.
func (c CostModel) GEMM(m, n, k int) float64 {
	flops := 2 * float64(m) * float64(n) * float64(k)
	return c.KernelLaunch + flops/c.FlopRate
}

// Inverse returns the time to invert an n×n matrix (factorize + solve).
func (c CostModel) Inverse(n int) float64 {
	return c.KernelLaunch + 2*math.Pow(float64(n), 3)/c.SmallOpRate
}

// EigenDecomp returns the time for a symmetric eigendecomposition, which
// in practice costs a large constant times n³ (KAISA's dominant inversion
// path uses eigendecompositions of the Kronecker factors).
func (c CostModel) EigenDecomp(n int) float64 {
	return c.KernelLaunch + 9*math.Pow(float64(n), 3)/c.SmallOpRate
}

// PivotedQR returns the time for a rank-r pivoted QR on an m×n matrix
// (the interpolative decomposition kernel): O(m·n·r).
func (c CostModel) PivotedQR(m, n, r int) float64 {
	return c.KernelLaunch + 4*float64(m)*float64(n)*float64(r)/c.SmallOpRate
}

// RowNormSample returns the time for norm-based importance sampling on an
// m×d matrix: one pass over the data, memory-bound, costed at the small-op
// rate per element.
func (c CostModel) RowNormSample(m, d int) float64 {
	return c.KernelLaunch + float64(2*float64(m)*float64(d)/c.FlopRate*10)
}

// AllReduce returns the time for a ring all-reduce of nBytes across the
// cluster: 2(P−1) message steps moving nBytes/P each.
func (c CostModel) AllReduce(nElems int) float64 {
	p := float64(c.Workers)
	if c.Workers == 1 {
		return 0
	}
	bytes := float64(nElems * bytesPerFloat)
	return float64(2*(p-1)*c.Alpha) + float64(2*(p-1)/p*bytes*c.Beta)
}

// AllGather returns the time for a ring all-gather where every worker
// contributes nElems values: (P−1) steps of nBytes each.
func (c CostModel) AllGather(nElems int) float64 {
	p := float64(c.Workers)
	if c.Workers == 1 {
		return 0
	}
	bytes := float64(nElems * bytesPerFloat)
	return (p - 1) * (c.Alpha + float64(bytes*c.Beta))
}

// Broadcast returns the time for a binomial-tree broadcast of nElems.
func (c CostModel) Broadcast(nElems int) float64 {
	if c.Workers == 1 {
		return 0
	}
	steps := math.Ceil(math.Log2(float64(c.Workers)))
	bytes := float64(nElems * bytesPerFloat)
	return steps * (c.Alpha + float64(bytes*c.Beta))
}
