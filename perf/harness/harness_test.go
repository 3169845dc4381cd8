package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/mat"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[100-i] = float64(i) // unsorted on purpose
	}
	if got := Percentile(xs, 95); got != 95 {
		t.Errorf("p95 of 0..100 = %v, want 95", got)
	}
	if xs[0] != 100 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {400, 95},
		{999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := TailPercentile(c.n); got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 10, 4, 6}, 2.75, 8.25},
		{[]float64{1.5, 2.5, 9, 10, 11, 30}, 2.25, 15.75},
	} {
		q1, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got, want := Spread([]float64{5, 1, 9, 3, 7, 2, 8, 10, 4, 6}), 1.0; got != want {
		t.Errorf("Spread = %v, want %v", got, want)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []Span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "update", Start: 10, End: 90, Parent: 0},
		// Two collectives in flight at once cover 20..50 together, not 50.
		{Name: "dist.allgather", Start: 20, End: 40, Parent: 1},
		{Name: "dist.allgather", Start: 30, End: 50, Parent: 1},
		// A child reaching past its parent is clipped to it.
		{Name: "dist.broadcast", Start: 80, End: 95, Parent: 1},
		{Name: "opt_step", Start: 92, End: 99, Parent: 0},
	}
	want := []int64{100 - 80 - 7, 80 - 30 - 10, 20, 20, 15, 7}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	cover := stepCommCover(append(spans, Span{Name: "dist.allreduce", Start: 95, End: 120, Step: 0}))
	if len(cover) != 1 || cover[0].comm != 30+15+5-0 {
		// 20..50, 80..95 and the part of 95..120 inside the step.
		t.Errorf("collective cover of the step = %+v, want 50", cover)
	}
}

func TestTracerNestsAndAttributes(t *testing.T) {
	tr := NewTracer(1)
	rt := tr.Rank(0)
	rt.SetStep(7)
	step := rt.Begin("step")
	upd := rt.Begin("update")
	c := &TracedComm{inner: dist.Local(), rt: rt}
	c.AllReduceScalar(1) // recorded against the open update span
	rt.End(upd)
	rt.SetOn(false)
	if rt.Begin("ignored") != -1 {
		t.Error("Begin recorded while off")
	}
	rt.SetOn(true)
	rt.End(step)
	spans := rt.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[2].Name != spanAllReduceScalar || spans[2].Step != 7 {
		t.Errorf("wrong nesting: %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "x", "w.trace.json")
	if err := tr.WriteChrome(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Errorf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestJudge(t *testing.T) {
	flat := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"lower is better, 10 % slower", flat, scale(flat, 1.10), false, 0.08, Worse},
		{"lower is better, 5 % slower", flat, scale(flat, 1.05), false, 0.08, Within},
		{"lower is better, 10 % faster", flat, scale(flat, 0.90), false, 0.08, Better},
		{"higher is better, 10 % less", flat, scale(flat, 0.90), true, 0.08, Worse},
		{"higher is better, 10 % more", flat, scale(flat, 1.10), true, 0.08, Better},
		{"spread wider than the bound", noisy, scale(noisy, 1.02), false, 0.08, Unresolved},
		{"spread wide but every run better", noisy, scale(noisy, 0.5), false, 0.08, Better},
		{"nothing measured", nil, flat, false, 0.08, Unresolved},
	} {
		if got := Judge(c.a, c.b, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareExactCountsAndExitStatus(t *testing.T) {
	mk := func(perS, finalLoss float64) *Doc {
		return &Doc{Workloads: []WorkloadDoc{{
			Name: "kid_deep_local",
			EndToEnd: map[string]Series{"samples_per_s": {
				Unit: "samples/s", Values: []float64{perS, perS * 1.01, perS * 0.99}, Median: perS}},
			PerLayer: map[string]Point{"train.final_loss": {Value: finalLoss}},
		}}}
	}
	var bf benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"samples_per_s","better":"higher","bound":0.08}]}`), &bf); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if Compare(&out, bf, mk(1000, 0.5), mk(990, 0.5)) {
		t.Errorf("1 %% slower with equal counts reported worse:\n%s", out.String())
	}
	out.Reset()
	if !Compare(&out, bf, mk(1000, 0.5), mk(1000, math.Nextafter(0.5, 1))) {
		t.Errorf("a final loss one ulp apart was not reported worse:\n%s", out.String())
	}
	out.Reset()
	if !Compare(&out, bf, mk(1000, 0.5), mk(800, 0.5)) || !strings.Contains(out.String(), Worse) {
		t.Errorf("20 %% slower was not reported worse:\n%s", out.String())
	}
	out.Reset()
	ungatedA, ungatedB := mk(1000, 0.5), mk(800, 0.5)
	ungatedA.Workloads[0].Name, ungatedB.Workloads[0].Name = "serve_closed2", "serve_closed2"
	if Compare(&out, bf, ungatedA, ungatedB) || !strings.Contains(out.String(), "not gated") {
		t.Errorf("a timing of a workload the contract does not gate counted as worse:\n%s", out.String())
	}
}

// runBoth runs fn on both ranks of an in-process cluster, rank r's Comm
// wrapped by wrap.
func runBoth(wrap func(dist.Comm) dist.Comm, fn func(dist.Comm) []uint64) [][]uint64 {
	out := make([][]uint64, 2)
	var mu sync.Mutex
	dist.NewCluster(2).Run(func(w *dist.Worker) {
		bits := fn(wrap(w))
		mu.Lock()
		out[w.Rank] = bits
		mu.Unlock()
	})
	return out
}

func TestDecoratorPassesValuesThroughUnchanged(t *testing.T) {
	collectives := func(c dist.Comm) []uint64 {
		var bits []uint64
		rec := func(m *mat.Dense) {
			for _, v := range m.Data() {
				bits = append(bits, math.Float64bits(v))
			}
		}
		m := mat.RandN(mat.NewRNG(uint64(11+c.ID())), 3, 4, 1)
		rec(c.AllReduceMat(m))
		for _, g := range c.AllGatherMat(m) {
			rec(g)
		}
		var root *mat.Dense
		if c.ID() == 1 {
			root = m
		}
		rec(c.BroadcastMat(1, root))
		bits = append(bits, math.Float64bits(c.AllReduceScalar(m.At(0, 0))))
		return bits
	}
	plain := runBoth(func(c dist.Comm) dist.Comm { return c }, collectives)
	tr := NewTracer(2)
	var decorated [2]*TracedComm
	traced := runBoth(func(c dist.Comm) dist.Comm {
		d := Decorate(c, tr.Rank(c.ID())).(*TracedComm)
		decorated[c.ID()] = d
		return d
	}, collectives)
	for rank := range plain {
		if len(plain[rank]) == 0 || len(plain[rank]) != len(traced[rank]) {
			t.Fatalf("rank %d: %d values against %d", rank, len(plain[rank]), len(traced[rank]))
		}
		for i := range plain[rank] {
			if plain[rank][i] != traced[rank][i] {
				t.Fatalf("rank %d value %d: %x through the decorator, %x without", rank, i, traced[rank][i], plain[rank][i])
			}
		}
		calls, bytes := decorated[rank].Counts()
		if calls != 4 || bytes != (3*12+1)*8 {
			t.Errorf("rank %d: %d calls, %d bytes, want 4 calls, %d bytes", rank, calls, bytes, (3*12+1)*8)
		}
		if n := len(tr.Rank(rank).Spans()); n != 4 {
			t.Errorf("rank %d recorded %d spans, want 4", rank, n)
		}
	}
	if _, ok := dist.AsBarrier(decorated[0]); !ok {
		t.Error("the decorator hides the transport's barrier")
	}
	if Decorate(dist.Local(), tr.Rank(0)) != dist.Local() {
		t.Error("a single-rank Comm should not be decorated")
	}
}

func smokeOpts(t *testing.T) RunOpts {
	return RunOpts{Seed: 3, Seconds: 0.05, Procs: SetProcs(2), WorkDir: t.TempDir(), TraceDir: t.TempDir(), Smoke: true}
}

// Every workload at toy size, end to end and traced, every correctness
// check on. Nothing here asserts a time.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range WorkloadNames() {
		for _, trace := range []bool{false, true} {
			o := smokeOpts(t)
			r, err := RunWorkload(name, trace, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: %d attempted, failures %v", name, trace, r.Attempted, r.Failures)
			}
			line, err := r.ContractLine()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var got struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &got); err != nil || !got.Correct {
				t.Fatalf("%s trace=%v: result line %s: %v", name, trace, line, err)
			}
			if len(got.Metrics) != len(ContractDefs(trace)) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(got.Metrics), len(ContractDefs(trace)))
			}
			if !trace {
				for _, d := range EndToEnd {
					if !(got.Metrics[d.Name].Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, got.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(o.TraceDir, name+".trace.json")); err != nil && name != "serve_closed2" {
				t.Errorf("%s: no Chrome trace written: %v", name, err)
			}
		}
	}
}

// The two P=2 rows issue the same collectives, and the local rows none.
func TestCollectiveCountsAcrossTransports(t *testing.T) {
	per := map[string]float64{}
	for _, name := range []string{"kid_deep_local", "kid_deep_inproc_p2", "kid_deep_tcp_p2"} {
		r, err := RunWorkload(name, true, smokeOpts(t))
		if err != nil {
			t.Fatal(err)
		}
		per[name] = r.Samples["dist.calls_per_step"].Value
		if name != "kid_deep_local" && r.Samples["dist.bytes_per_step"].Value <= 0 {
			t.Errorf("%s moved no bytes", name)
		}
	}
	if per["kid_deep_local"] != 0 {
		t.Errorf("local workload issued %v collectives a step", per["kid_deep_local"])
	}
	if per["kid_deep_inproc_p2"] <= 0 || per["kid_deep_inproc_p2"] != per["kid_deep_tcp_p2"] {
		t.Errorf("collectives a step: in-process %v, TCP %v; want equal and positive",
			per["kid_deep_inproc_p2"], per["kid_deep_tcp_p2"])
	}
}

// A decorator that flips one bit of what it passes through must fail the
// run: the parity check is live.
func TestFlippedBitFailsTheParityCheck(t *testing.T) {
	for _, spec := range TrainSpecs() {
		if spec.Ranks == 1 {
			continue // nothing is decorated on one rank
		}
		r, err := runTrainTrace(spec.Smoke(), smokeOpts(t), true)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range r.Failures {
			found = found || strings.Contains(f, "through the decorator")
		}
		if !found {
			t.Errorf("%s: a flipped bit went unnoticed (failures: %v)", spec.Name, r.Failures)
		}
	}
}

// BENCHMARK.json at the root of the repository must list exactly the
// workloads the contract gates and the metrics a contract run prints.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	names := ContractWorkloadNames()
	if len(bf.Workloads) != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(names))
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, names[i])
		}
	}
	perLayer := ContractDefs(true)
	if len(bf.EndToEnd) != len(EndToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d + %d metrics, the registry %d + %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(EndToEnd), len(perLayer))
	}
	for i, d := range EndToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d is %+v, registry says %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v, registry says %+v", i, m, d)
		}
	}
}
