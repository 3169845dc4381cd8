package dist

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mat"
)

func TestCheckedCommPassesMatchingSequences(t *testing.T) {
	var failures int64
	chk := NewSeqChecker(func(string) { atomic.AddInt64(&failures, 1) })
	c := NewCluster(4)
	c.Run(func(w *Worker) {
		comm := chk.Check(w)
		m := mat.NewDense(2, 2)
		m.Fill(float64(w.Rank))
		comm.AllReduceMat(m)
		comm.AllGatherMat(m)
		var b *mat.Dense
		if w.Rank == 0 {
			b = m
		}
		comm.BroadcastMat(0, b)
		comm.AllReduceScalar(1)
	})
	if failures != 0 {
		t.Fatalf("matching sequences reported %d failures", failures)
	}
}

func TestCheckedCommDetectsMismatch(t *testing.T) {
	var msg atomic.Value
	chk := NewSeqChecker(func(m string) { msg.Store(m) })
	c := NewCluster(2)
	c.Run(func(w *Worker) {
		comm := chk.Check(w)
		m := mat.NewDense(1, 1)
		// Divergent control flow: rank 0 broadcasts, rank 1 gathers. In
		// the channel-based simulator both ops share the same barrier
		// pattern, so execution completes — but results are garbage; the
		// checker must flag it. Both ops only read the peer's matrix, so
		// the mismatch itself races on nothing.
		if w.Rank == 0 {
			comm.BroadcastMat(0, m)
		} else {
			comm.AllGatherMat(m)
		}
	})
	v := msg.Load()
	if v == nil {
		t.Fatal("mismatched collective sequence not detected")
	}
	s := v.(string)
	if !strings.Contains(s, "mismatch") || !strings.Contains(s, "allgather") {
		t.Fatalf("unhelpful diagnostic: %q", s)
	}
}

func TestCheckedCommReportsOnce(t *testing.T) {
	var failures int64
	chk := NewSeqChecker(func(string) { atomic.AddInt64(&failures, 1) })
	c := NewCluster(2)
	c.Run(func(w *Worker) {
		comm := chk.Check(w)
		m := mat.NewDense(1, 1)
		for i := 0; i < 3; i++ {
			if w.Rank == 0 {
				comm.BroadcastMat(0, m)
			} else {
				comm.AllGatherMat(m)
			}
		}
	})
	if failures != 1 {
		t.Fatalf("reported %d failures; want exactly 1", failures)
	}
}
