package harness

import (
	"math"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
)

// Span names of the collectives the decorator times.
const (
	spanAllReduce       = "dist.allreduce"
	spanAllGather       = "dist.allgather"
	spanBroadcast       = "dist.broadcast"
	spanAllReduceScalar = "dist.allreduce_scalar"
)

func isCommSpan(name string) bool { return strings.HasPrefix(name, "dist.") }

// TracedComm is the benchmark's decorator around a rank's dist.Comm: it is
// what the traced loop and the preconditioner receive, so every collective
// the program issues is timed and counted at the dist boundary without any
// change inside the program. Results pass through untouched; Unwrap keeps
// dist.AsBarrier / dist.AsByteGatherer / dist.AsWorker working through it.
type TracedComm struct {
	inner dist.Comm
	rt    *RankTrace

	calls atomic.Int64
	bytes atomic.Int64 // computed from matrix dimensions, not read off a wire

	// flipBit corrupts the lowest mantissa bit of every all-reduced value.
	// Only the self-test sets it, to prove the bit-parity check is live.
	flipBit bool
}

// Decorate wraps comm for rank tracing. A single-rank Comm is returned as
// it is: with one worker the trainer issues no gradient collectives and the
// preconditioner's are inline no-ops, so there is no dist layer to measure.
func Decorate(comm dist.Comm, rt *RankTrace) dist.Comm {
	if comm.Size() == 1 {
		return comm
	}
	return &TracedComm{inner: comm, rt: rt}
}

// Unwrap returns the decorated Comm.
func (c *TracedComm) Unwrap() dist.Comm { return c.inner }

// Size implements dist.Comm.
func (c *TracedComm) Size() int { return c.inner.Size() }

// ID implements dist.Comm.
func (c *TracedComm) ID() int { return c.inner.ID() }

// Counts returns the collectives issued and their computed payload bytes.
func (c *TracedComm) Counts() (calls, bytes int64) { return c.calls.Load(), c.bytes.Load() }

func (c *TracedComm) count(elems int) {
	c.calls.Add(1)
	c.bytes.Add(int64(elems) * 8)
}

// AllReduceMat implements dist.Comm.
func (c *TracedComm) AllReduceMat(m *mat.Dense) *mat.Dense {
	parent, start := c.rt.Open(), time.Now()
	out := c.inner.AllReduceMat(m)
	c.rt.Record(spanAllReduce, start, parent)
	c.count(m.Rows() * m.Cols())
	if c.flipBit {
		d := out.Data()
		d[0] = flipLowestBit(d[0])
	}
	return out
}

func flipLowestBit(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

// AllGatherMat implements dist.Comm.
func (c *TracedComm) AllGatherMat(m *mat.Dense) []*mat.Dense {
	parent, start := c.rt.Open(), time.Now()
	out := c.inner.AllGatherMat(m)
	c.rt.Record(spanAllGather, start, parent)
	c.count(m.Rows() * m.Cols())
	return out
}

// BroadcastMat implements dist.Comm. m is nil off the root, so the payload
// is computed from the result, which every rank holds.
func (c *TracedComm) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	parent, start := c.rt.Open(), time.Now()
	out := c.inner.BroadcastMat(root, m)
	c.rt.Record(spanBroadcast, start, parent)
	c.count(out.Rows() * out.Cols())
	return out
}

// AllReduceScalar implements dist.Comm.
func (c *TracedComm) AllReduceScalar(v float64) float64 {
	parent, start := c.rt.Open(), time.Now()
	out := c.inner.AllReduceScalar(v)
	c.rt.Record(spanAllReduceScalar, start, parent)
	c.count(1)
	if c.flipBit {
		out = flipLowestBit(out)
	}
	return out
}
