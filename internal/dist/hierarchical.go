package dist

import "math"

// HierarchicalCostModel refines CostModel for clusters of multi-GPU nodes
// (the Mist system: 4 V100s per node with NVLink inside and InfiniBand EDR
// between nodes). Collectives pay the fast intra-node link for the
// within-node phase and the slow inter-node link for the cross-node phase,
// which is how NCCL's tree/ring hierarchy behaves.
type HierarchicalCostModel struct {
	// Compute is the per-GPU compute model (FLOP rates, launch overhead).
	Compute CostModel
	// GPUsPerNode is the intra-node group size.
	GPUsPerNode int
	// IntraAlpha/IntraBeta describe the NVLink-class intra-node link.
	IntraAlpha, IntraBeta float64
	// InterAlpha/InterBeta describe the InfiniBand-class inter-node link.
	InterAlpha, InterBeta float64
}

// MistCluster returns constants resembling the paper's Mist system:
// 4×V100 per node, NVLink (~75 GB/s effective) inside, InfiniBand EDR
// (~10 GB/s effective) between nodes.
func MistCluster(p int) HierarchicalCostModel {
	return HierarchicalCostModel{
		Compute:     V100Cluster(p),
		GPUsPerNode: 4,
		IntraAlpha:  3e-6, IntraBeta: 1.0 / 75e9,
		InterAlpha: 5e-6, InterBeta: 1.0 / 10e9,
	}
}

// Nodes returns the number of nodes.
func (h HierarchicalCostModel) Nodes() int {
	n := (h.Compute.Workers + h.GPUsPerNode - 1) / h.GPUsPerNode
	if n < 1 {
		n = 1
	}
	return n
}

// AllGather models a hierarchical all-gather with per-worker contribution
// nElems: intra-node gather then inter-node exchange of node blocks.
func (h HierarchicalCostModel) AllGather(nElems int) float64 {
	p := h.Compute.Workers
	if p == 1 {
		return 0
	}
	bytes := float64(nElems * bytesPerFloat)
	g := float64(min(h.GPUsPerNode, p))
	nodes := float64(h.Nodes())
	var t float64
	if g > 1 {
		t += float64((g - 1) * (h.IntraAlpha + float64(bytes*h.IntraBeta)))
	}
	if nodes > 1 {
		nodeBlock := bytes * g
		t += float64((nodes - 1) * (h.InterAlpha + float64(nodeBlock*h.InterBeta)))
	}
	return t
}

// Broadcast models a two-level broadcast: inter-node tree then intra-node
// tree.
func (h HierarchicalCostModel) Broadcast(nElems int) float64 {
	p := h.Compute.Workers
	if p == 1 {
		return 0
	}
	bytes := float64(nElems * bytesPerFloat)
	g := float64(min(h.GPUsPerNode, p))
	nodes := float64(h.Nodes())
	var t float64
	if nodes > 1 {
		t += float64(math.Ceil(math.Log2(nodes)) * (h.InterAlpha + float64(bytes*h.InterBeta)))
	}
	if g > 1 {
		t += float64(math.Ceil(math.Log2(g)) * (h.IntraAlpha + float64(bytes*h.IntraBeta)))
	}
	return t
}
