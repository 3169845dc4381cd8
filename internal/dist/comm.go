package dist

import "repro/internal/mat"

// Comm is the collective surface the second-order preconditioners use, so
// one algorithm runs single-process (Local), in process (*Worker) and over
// TCP. Its results are the caller's; checkpoints gather via ByteGatherer.
type Comm interface {
	// Size returns the number of workers P.
	Size() int
	// ID returns this worker's rank.
	ID() int
	// AllGatherMat gathers one matrix per worker in rank order.
	AllGatherMat(m *mat.Dense) []*mat.Dense
	// AllReduceMat writes the element-wise sum across workers into m and
	// returns m. After a collective that panics, m's contents are
	// unspecified.
	AllReduceMat(m *mat.Dense) *mat.Dense
	// BroadcastMat distributes root's matrix to every worker.
	BroadcastMat(root int, m *mat.Dense) *mat.Dense
	// AllReduceScalar returns the sum of v across workers.
	AllReduceScalar(v float64) float64
}

// Size implements Comm.
func (w *Worker) Size() int { return w.c.P }

// ID implements Comm.
func (w *Worker) ID() int { return w.Rank }

// BroadcastMat implements Comm.
func (w *Worker) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	return w.Broadcast(root, m)
}

// Local returns a single-worker Comm for non-distributed execution.
func Local() Comm { return localComm{} }

type localComm struct{}

func (localComm) Size() int                              { return 1 }
func (localComm) ID() int                                { return 0 }
func (localComm) AllGatherMat(m *mat.Dense) []*mat.Dense { return []*mat.Dense{m} }

// AllReduceMat returns m itself: the single-worker sum is the input.
func (localComm) AllReduceMat(m *mat.Dense) *mat.Dense        { return m }
func (localComm) BroadcastMat(_ int, m *mat.Dense) *mat.Dense { return m }
func (localComm) AllReduceScalar(v float64) float64           { return v }
