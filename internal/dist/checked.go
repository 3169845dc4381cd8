package dist

import (
	"fmt"
	"sync"

	"repro/internal/mat"
)

// CheckedComm wraps a worker with a collective-sequence validator: every
// worker's n-th collective call must have the same operation type,
// otherwise the mismatch is reported immediately with a diagnostic instead
// of deadlocking or silently corrupting data — the failure mode of
// divergent control flow under MPI/NCCL (and the bug class a per-worker
// RNG inside a switching policy once caused in this repository).
type CheckedComm struct {
	inner *Worker
	seq   *seqChecker
	pos   int
}

type collectiveOp struct {
	kind string
	rows int
	cols int
}

type seqChecker struct {
	mu       sync.Mutex
	calls    []map[int]collectiveOp // per step: rank → op
	onFail   func(string)
	reported bool
}

// NewSeqChecker returns a validator shared by all workers of one cluster.
// onMismatch receives one diagnostic for the first mismatch; pass nil to
// panic on mismatch.
func NewSeqChecker(onMismatch func(string)) *seqChecker {
	if onMismatch == nil {
		onMismatch = func(msg string) { panic("dist: " + msg) }
	}
	return &seqChecker{onFail: onMismatch}
}

// Check wraps a worker with the shared validator.
func (s *seqChecker) Check(w *Worker) *CheckedComm {
	return &CheckedComm{inner: w, seq: s}
}

// step records this worker's op at its next sequence position and checks
// consistency against what other workers recorded at the same position.
func (s *seqChecker) step(rank, pos int, op collectiveOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.calls) <= pos {
		s.calls = append(s.calls, map[int]collectiveOp{})
	}
	slot := s.calls[pos]
	for other, prev := range slot {
		if prev.kind != op.kind && !s.reported {
			s.reported = true
			s.onFail(fmt.Sprintf(
				"collective sequence mismatch at step %d: rank %d issued %s, rank %d issued %s",
				pos, other, prev.kind, rank, op.kind))
			break
		}
	}
	slot[rank] = op
}

// Unwrap returns the wrapped Comm (used by AsBarrier and AsByteGatherer).
func (c *CheckedComm) Unwrap() Comm { return c.inner }

func (c *CheckedComm) next() int {
	p := c.pos
	c.pos++
	return p
}

// Size implements Comm.
func (c *CheckedComm) Size() int { return c.inner.Size() }

// ID implements Comm.
func (c *CheckedComm) ID() int { return c.inner.ID() }

// AllGatherMat implements Comm with sequence checking.
func (c *CheckedComm) AllGatherMat(m *mat.Dense) []*mat.Dense {
	c.seq.step(c.ID(), c.next(), collectiveOp{"allgather", m.Rows(), m.Cols()})
	return c.inner.AllGatherMat(m)
}

// AllReduceMat implements Comm with sequence checking.
func (c *CheckedComm) AllReduceMat(m *mat.Dense) *mat.Dense {
	c.seq.step(c.ID(), c.next(), collectiveOp{"allreduce", m.Rows(), m.Cols()})
	return c.inner.AllReduceMat(m)
}

// BroadcastMat implements Comm with sequence checking.
func (c *CheckedComm) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	rows, cols := -1, -1
	if m != nil {
		rows, cols = m.Dims()
	}
	c.seq.step(c.ID(), c.next(), collectiveOp{"broadcast", rows, cols})
	return c.inner.BroadcastMat(root, m)
}

// AllReduceScalar implements Comm with sequence checking.
func (c *CheckedComm) AllReduceScalar(v float64) float64 {
	c.seq.step(c.ID(), c.next(), collectiveOp{"allreduce-scalar", 1, 1})
	return c.inner.AllReduceScalar(v)
}
