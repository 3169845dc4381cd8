package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the benchmark
// around a call into the program. Times are nanoseconds since the tracer's
// origin.
type Span struct {
	Name   string
	Start  int64
	End    int64
	Parent int // index of the causing span in the same rank's list; -1 for a root
	Rank   int
	Step   int // step id shared by every span of one training step; -1 outside the loop
}

// Dur returns the span's length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps every rank's spans in memory until the run ends.
type Tracer struct {
	origin time.Time
	ranks  []*RankTrace
}

// RankTrace is one rank's span list. The rank's own goroutine opens and
// closes nested spans with Begin/End; the collective decorator, which may
// run on the preconditioner's executor goroutine, adds finished spans with
// Record, so appends are locked.
type RankTrace struct {
	t    *Tracer
	rank int

	mu    sync.Mutex
	spans []Span

	open atomic.Int64 // index of the innermost open Begin span, -1 if none
	step atomic.Int64
	on   atomic.Bool
}

// NewTracer builds a tracer for the given number of ranks, recording on.
func NewTracer(ranks int) *Tracer {
	t := &Tracer{origin: time.Now()}
	for r := 0; r < ranks; r++ {
		rt := &RankTrace{t: t, rank: r}
		rt.open.Store(-1)
		rt.step.Store(-1)
		rt.on.Store(true)
		t.ranks = append(t.ranks, rt)
	}
	return t
}

// Rank returns rank r's trace.
func (t *Tracer) Rank(r int) *RankTrace { return t.ranks[r] }

// Ranks returns how many ranks the tracer holds.
func (t *Tracer) Ranks() int { return len(t.ranks) }

func (t *Tracer) now() int64 { return int64(time.Since(t.origin)) }

// SetOn switches recording; while off, Begin/End/Record cost one atomic
// load, which is what the traced-versus-untraced comparison measures.
func (r *RankTrace) SetOn(on bool) { r.on.Store(on) }

// SetStep sets the step id stamped on subsequent spans.
func (r *RankTrace) SetStep(step int) { r.step.Store(int64(step)) }

// Begin opens a span caused by the innermost open one and returns its
// handle for End. It returns -1 while recording is off.
func (r *RankTrace) Begin(name string) int {
	if !r.on.Load() {
		return -1
	}
	start := r.t.now()
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Start: start, Parent: int(r.open.Load()),
		Rank: r.rank, Step: int(r.step.Load())})
	r.mu.Unlock()
	r.open.Store(int64(idx))
	return idx
}

// End closes the span Begin returned.
func (r *RankTrace) End(idx int) {
	if idx < 0 {
		return
	}
	end := r.t.now()
	r.mu.Lock()
	r.spans[idx].End = end
	parent := r.spans[idx].Parent
	r.mu.Unlock()
	r.open.Store(int64(parent))
}

// Record adds a finished span whose cause is the span open when it started.
func (r *RankTrace) Record(name string, start time.Time, parent int) {
	if !r.on.Load() {
		return
	}
	end := r.t.now()
	s := Span{Name: name, Start: int64(start.Sub(r.t.origin)), End: end,
		Parent: parent, Rank: r.rank, Step: int(r.step.Load())}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Open returns the handle of the innermost open span, the parent a
// collective started now should name.
func (r *RankTrace) Open() int { return int(r.open.Load()) }

// Spans returns a copy of the rank's spans.
func (r *RankTrace) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, for every span of one rank's list, its duration minus
// the part of its interval that its child spans cover. Children that
// overlap one another (a collective in flight while another runs) are
// counted once, and a child reaching outside its parent is clipped to it.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - coveredLen(children[i])
	}
	return self
}

// coveredLen returns the length of the union of the intervals.
func coveredLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0] > hi {
			total += hi - lo
			lo, hi = v[0], v[1]
		} else if v[1] > hi {
			hi = v[1]
		}
	}
	return total + hi - lo
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes every rank's spans as a Chrome trace (open it in
// chrome://tracing or ui.perfetto.dev): one process per rank, phases on
// thread 0 and collectives, which may overlap them, on thread 1.
func (t *Tracer) WriteChrome(path string) error {
	var events []chromeEvent
	for _, r := range t.ranks {
		for i, s := range r.Spans() {
			tid := 0
			if isCommSpan(s.Name) {
				tid = 1
			}
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
				Pid: s.Rank, Tid: tid,
				Args: map[string]any{"step": s.Step, "id": i, "parent": s.Parent},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
