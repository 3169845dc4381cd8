package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed tick per reading, making traces
// deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Duration
	tick time.Duration
}

func (f *fakeClock) now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.t
	f.t += f.tick
	return cur
}

func TestTracerSpanAndInstant(t *testing.T) {
	clk := &fakeClock{tick: time.Millisecond}
	tr := NewTracerAt(clk.now)
	end := tr.Span("factorization", 3, Label{Key: "mode", Value: "KID"})
	end()
	tr.Instant("failure", 1)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d; want 2", len(evs))
	}
	sp := evs[0]
	if sp.Kind != KindComplete || sp.Name != "factorization" || sp.TID != 3 {
		t.Fatalf("span event wrong: %+v", sp)
	}
	if sp.Time != 0 || sp.Dur != time.Millisecond {
		t.Fatalf("span timing wrong: start=%v dur=%v", sp.Time, sp.Dur)
	}
	if len(sp.Labels) != 1 || sp.Labels[0].Value != "KID" {
		t.Fatalf("span labels wrong: %+v", sp.Labels)
	}
	if evs[1].Kind != KindInstant || evs[1].Dur != 0 {
		t.Fatalf("instant event wrong: %+v", evs[1])
	}
}

func TestTracerBufferCap(t *testing.T) {
	tr := NewTracerAt(func() time.Duration { return 0 })
	tr.max = 4
	for i := 0; i < 10; i++ {
		tr.Instant("e", 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d; want 4", tr.Len())
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	const goroutines, perG = 16, 100
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Span("work", g)()
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG {
		t.Fatalf("len = %d; want %d", tr.Len(), goroutines*perG)
	}
}

func TestSummarize(t *testing.T) {
	clk := &fakeClock{tick: time.Millisecond}
	tr := NewTracerAt(clk.now)
	tr.Record("slow", 0, 0, 30*time.Millisecond)
	tr.Record("fast", 0, 0, time.Millisecond)
	tr.Record("fast", 0, 0, 3*time.Millisecond)
	tr.Instant("noise", 0) // instants are excluded
	stats := Summarize(tr.Events())
	if len(stats) != 2 {
		t.Fatalf("stats = %d; want 2", len(stats))
	}
	if stats[0].Name != "slow" || stats[0].Total != 30*time.Millisecond {
		t.Fatalf("top phase wrong: %+v", stats[0])
	}
	if stats[1].Count != 2 || stats[1].Mean() != 2*time.Millisecond || stats[1].Max != 3*time.Millisecond {
		t.Fatalf("fast stats wrong: %+v", stats[1])
	}
	var b strings.Builder
	WriteSummary(&b, stats, 1)
	out := b.String()
	if !strings.Contains(out, "slow") || strings.Contains(out, "fast") {
		t.Fatalf("top-1 summary wrong:\n%s", out)
	}
}

func TestGlobalHelpersDisabled(t *testing.T) {
	SetEnabled(false)
	fresh := New()
	SetDefault(fresh)
	defer SetDefault(New())
	Span("s", 0)()
	Instant("i", 0)
	IncCounter("c", 1)
	SetGauge("g", 1)
	Observe("h", 1)
	RecordSpan("r", 0, time.Millisecond)
	if fresh.Trace.Len() != 0 {
		t.Fatal("disabled telemetry recorded trace events")
	}
	if len(fresh.Metrics.Snapshot()) != 0 {
		t.Fatal("disabled telemetry recorded metrics")
	}
	SetEnabled(true)
	defer SetEnabled(false)
	Span("s", 0)()
	IncCounter("c", 2)
	if fresh.Trace.Len() != 1 {
		t.Fatal("enabled telemetry did not record the span")
	}
	if fresh.Metrics.Counter("c").Value() != 2 {
		t.Fatal("enabled telemetry did not record the counter")
	}
}
