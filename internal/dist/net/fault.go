package distnet

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// SocketFaultPlan schedules deterministic socket-level fault injection,
// applied between framing and the wire: whole frames are dropped, delayed,
// duplicated, reordered, or blackholed. All randomness derives from Seed
// (endpoint-offset), so a given plan produces the identical fault sequence
// on every run.
//
// Every fault here is recoverable — requests and up frames are re-sent
// until answered, and a parent re-serves its last completed collective's
// down frames (tree.go) — so injection proves the recovery machinery
// rather than merely breaking runs. A partition longer than the peer
// deadline escalates — by design — into peer-death detection.
type SocketFaultPlan struct {
	// Seed drives all draws (offset by an endpoint id so the two ends of a
	// connection fault independently but reproducibly).
	Seed uint64
	// DropProb silently discards an outgoing frame.
	DropProb float64
	// DupProb sends an outgoing frame twice.
	DupProb float64
	// ReorderProb holds an outgoing frame back and emits it after the next
	// frame (pairwise swap).
	ReorderProb float64
	// DelayProb stalls an outgoing frame by Delay.
	DelayProb float64
	Delay     time.Duration
	// PartitionAfter/PartitionFor blackhole all outgoing frames during
	// [PartitionAfter, PartitionAfter+PartitionFor) measured from link
	// creation. Zero PartitionFor disables.
	PartitionAfter time.Duration
	PartitionFor   time.Duration
}

// Enabled reports whether the plan injects anything at all.
func (p *SocketFaultPlan) Enabled() bool {
	return p != nil && (p.DropProb > 0 || p.DupProb > 0 || p.ReorderProb > 0 ||
		(p.DelayProb > 0 && p.Delay > 0) || p.PartitionFor > 0)
}

// ParseSocketFaultSpec parses the -net-fault grammar: comma-separated
// directives drop:PROB, dup:PROB, reorder:PROB, delay:PROB@DUR,
// partition:AFTER@DUR. An empty spec returns (nil, nil) — injection
// disabled.
func ParseSocketFaultSpec(spec string) (*SocketFaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &SocketFaultPlan{}
	prob := func(part, arg string) (float64, error) {
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p <= 0 || p > 1 {
			return 0, fmt.Errorf("%q: probability must be in (0, 1]", part)
		}
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, arg, ok := strings.Cut(part, ":")
		if !ok || arg == "" {
			return nil, fmt.Errorf("%q: want KIND:ARGS", part)
		}
		var err error
		switch kind {
		case "drop":
			plan.DropProb, err = prob(part, arg)
		case "dup":
			plan.DupProb, err = prob(part, arg)
		case "reorder":
			plan.ReorderProb, err = prob(part, arg)
		case "delay":
			ps, ds, ok := strings.Cut(arg, "@")
			if !ok {
				return nil, fmt.Errorf("%q: want delay:PROB@DUR", part)
			}
			if plan.DelayProb, err = prob(part, ps); err != nil {
				return nil, err
			}
			d, derr := time.ParseDuration(ds)
			if derr != nil || d <= 0 {
				return nil, fmt.Errorf("%q: bad duration %q", part, ds)
			}
			plan.Delay = d
		case "partition":
			as, ds, ok := strings.Cut(arg, "@")
			if !ok {
				return nil, fmt.Errorf("%q: want partition:AFTER@DUR", part)
			}
			after, aerr := time.ParseDuration(as)
			dur, derr := time.ParseDuration(ds)
			if aerr != nil || derr != nil || after < 0 || dur <= 0 {
				return nil, fmt.Errorf("%q: bad durations", part)
			}
			plan.PartitionAfter, plan.PartitionFor = after, dur
		default:
			return nil, fmt.Errorf("%q: unknown socket fault kind %q", part, kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// faultWriter injects the plan's faults into a stream of outgoing frames.
// It sits between frame encoding and the wire; the receiving end's decoder
// and the request/retransmit protocol above absorb the damage.
type faultWriter struct {
	mu    sync.Mutex
	w     io.Writer
	plan  SocketFaultPlan
	rng   *mat.RNG
	held  *Frame // reorder: frame held back awaiting a successor
	start time.Time
}

// newFaultWriter wraps w; endpoint offsets the deterministic stream so the
// two directions of a connection draw independently.
func newFaultWriter(w io.Writer, plan SocketFaultPlan, endpoint uint64) *faultWriter {
	return &faultWriter{
		w:     w,
		plan:  plan,
		rng:   mat.NewRNG(plan.Seed + 0x9E3779B97F4A7C15*endpoint + 7),
		start: time.Now(),
	}
}

func countSocketFault(kind string) {
	telemetry.IncCounter(telemetry.MetricFaultsInjected, 1,
		telemetry.Label{Key: "kind", Value: "socket-" + kind})
}

// writeFrame applies the chaos draws to f. Draws happen in frame order on
// each endpoint, so a plan replays identically across runs.
func (fw *faultWriter) writeFrame(f Frame) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.plan.PartitionFor > 0 {
		since := time.Since(fw.start)
		if since >= fw.plan.PartitionAfter && since < fw.plan.PartitionAfter+fw.plan.PartitionFor {
			countSocketFault("partition")
			return nil // blackholed
		}
	}
	if fw.plan.DropProb > 0 && fw.rng.Float64() < fw.plan.DropProb {
		countSocketFault("drop")
		return nil
	}
	if fw.plan.DelayProb > 0 && fw.plan.Delay > 0 && fw.rng.Float64() < fw.plan.DelayProb {
		countSocketFault("delay")
		time.Sleep(fw.plan.Delay)
	}
	if fw.plan.ReorderProb > 0 && fw.held == nil && fw.rng.Float64() < fw.plan.ReorderProb {
		// Hold this frame, and a reference to its buffer; it goes out
		// after the next one.
		countSocketFault("reorder")
		held := f.retain()
		fw.held = &held
		return nil
	}
	if err := WriteFrame(fw.w, f); err != nil {
		return err
	}
	if fw.plan.DupProb > 0 && fw.rng.Float64() < fw.plan.DupProb {
		countSocketFault("dup")
		if err := WriteFrame(fw.w, f); err != nil {
			return err
		}
	}
	if fw.held != nil {
		held := *fw.held
		fw.held = nil
		defer held.release()
		return WriteFrame(fw.w, held)
	}
	return nil
}

// frameWriter is the minimal sink the link and coordinator write through —
// either a bare connWriter or a faultWriter.
type frameWriter interface {
	writeFrame(f Frame) error
}

// connWriter serializes frame writes onto a shared connection.
type connWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (cw *connWriter) writeFrame(f Frame) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return WriteFrame(cw.w, f)
}

// wrapWriter layers fault injection over w when the plan is enabled.
func wrapWriter(w io.Writer, plan *SocketFaultPlan, endpoint uint64) frameWriter {
	if plan.Enabled() {
		return newFaultWriter(w, *plan, endpoint)
	}
	return &connWriter{w: w}
}
