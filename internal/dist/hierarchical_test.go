package dist

import "testing"

func TestMistNodes(t *testing.T) {
	if n := MistCluster(64).Nodes(); n != 16 {
		t.Fatalf("64 GPUs → %d nodes; want 16", n)
	}
	if n := MistCluster(3).Nodes(); n != 1 {
		t.Fatalf("3 GPUs → %d nodes; want 1", n)
	}
}

func TestHierarchicalSingleWorkerFree(t *testing.T) {
	h := MistCluster(1)
	if h.AllGather(1<<20) != 0 || h.Broadcast(1<<20) != 0 {
		t.Fatal("P=1 hierarchical collectives must be free")
	}
}

func TestIntraNodeCheaperThanCrossNode(t *testing.T) {
	// 4 GPUs on one node vs 4 GPUs on 4 nodes (1/node).
	oneNode := MistCluster(4)
	fourNodes := MistCluster(4)
	fourNodes.GPUsPerNode = 1
	n := 1 << 20
	if oneNode.Broadcast(n) >= fourNodes.Broadcast(n) {
		t.Fatal("NVLink broadcast should beat IB broadcast")
	}
}

func TestHierarchicalMonotonicInSize(t *testing.T) {
	h := MistCluster(16)
	if h.AllGather(1<<22) <= h.AllGather(1<<12) {
		t.Fatal("allgather not increasing in message size")
	}
}

func TestHierarchicalGrowsWithNodes(t *testing.T) {
	n := 1 << 20
	if MistCluster(64).AllGather(n) <= MistCluster(8).AllGather(n) {
		t.Fatal("allgather should grow with cluster size")
	}
}
