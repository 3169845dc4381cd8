package cliutil

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/mat"
)

func TestSpecValidate(t *testing.T) {
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
	// rank-frac = 1 is the inclusive upper edge; id-tol, weight-decay,
	// momentum and eta accept 0 (for id-tol: truncation off).
	edge := Spec{Model: "mlp", Optimizer: "sgd", Epochs: 1, Batch: 1, Workers: 1, UpdateFreq: 1,
		Classes: 1, Samples: 1, LR: 1e-9, Damping: 1, RankFrac: 1}
	if err := edge.Validate(); err != nil {
		t.Fatalf("edge spec rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"zero epochs", func(s *Spec) { s.Epochs = 0 }, "-epochs"},
		{"negative epochs", func(s *Spec) { s.Epochs = -3 }, "-epochs"},
		{"zero batch", func(s *Spec) { s.Batch = 0 }, "-batch"},
		{"zero workers", func(s *Spec) { s.Workers = 0 }, "-workers"},
		{"negative freq", func(s *Spec) { s.UpdateFreq = -1 }, "-freq"},
		{"zero classes", func(s *Spec) { s.Classes = 0 }, "-classes"},
		{"zero samples", func(s *Spec) { s.Samples = 0 }, "-samples"},
		{"zero lr", func(s *Spec) { s.LR = 0 }, "-lr"},
		{"negative lr", func(s *Spec) { s.LR = -0.1 }, "-lr"},
		{"NaN lr", func(s *Spec) { s.LR = nan }, "-lr"},
		{"Inf lr", func(s *Spec) { s.LR = inf }, "-lr"},
		{"negative momentum", func(s *Spec) { s.Momentum = -0.1 }, "-momentum"},
		{"momentum at one", func(s *Spec) { s.Momentum = 1 }, "-momentum"},
		{"NaN momentum", func(s *Spec) { s.Momentum = nan }, "-momentum"},
		{"negative weight-decay", func(s *Spec) { s.WeightDecay = -1e-4 }, "-weight-decay"},
		{"NaN weight-decay", func(s *Spec) { s.WeightDecay = nan }, "-weight-decay"},
		{"Inf weight-decay", func(s *Spec) { s.WeightDecay = inf }, "-weight-decay"},
		{"zero damping", func(s *Spec) { s.Damping = 0 }, "-damping"},
		{"negative damping", func(s *Spec) { s.Damping = -0.01 }, "-damping"},
		{"NaN damping", func(s *Spec) { s.Damping = nan }, "-damping"},
		{"Inf damping", func(s *Spec) { s.Damping = inf }, "-damping"},
		{"zero rank-frac", func(s *Spec) { s.RankFrac = 0 }, "-rank-frac"},
		{"rank-frac above one", func(s *Spec) { s.RankFrac = 1.5 }, "-rank-frac"},
		{"negative rank-frac", func(s *Spec) { s.RankFrac = -0.1 }, "-rank-frac"},
		{"NaN rank-frac", func(s *Spec) { s.RankFrac = nan }, "-rank-frac"},
		{"negative eta", func(s *Spec) { s.Eta = -0.25 }, "-eta"},
		{"NaN eta", func(s *Spec) { s.Eta = nan }, "-eta"},
		{"Inf eta", func(s *Spec) { s.Eta = inf }, "-eta"},
		{"negative id-tol", func(s *Spec) { s.IDTol = -1e-6 }, "-id-tol"},
		{"id-tol at one", func(s *Spec) { s.IDTol = 1 }, "-id-tol"},
		{"NaN id-tol", func(s *Spec) { s.IDTol = nan }, "-id-tol"},
		{"unknown kid-sketch", func(s *Spec) { s.KidSketch = "hadamard" }, "-kid-sketch"},
		{"negative kid-oversample", func(s *Spec) { s.KidOversample = -4 }, "-kid-oversample"},
		{"huge kid-oversample", func(s *Spec) { s.KidOversample = MaxKidOversample + 1 }, "-kid-oversample"},
		{"unknown model", func(s *Spec) { s.Model = "gpt5" }, "unknown model"},
		{"unknown optimizer", func(s *Spec) { s.Optimizer = "lion" }, "unknown optimizer"},
	}
	for _, c := range cases {
		s := DefaultSpec()
		c.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v; want an error naming %q", c.name, err, c.want)
		}
	}
}

// TestSpecNormalize: every zero field takes DefaultSpec's value, every set
// field is kept, and a second pass changes nothing.
func TestSpecNormalize(t *testing.T) {
	var s Spec
	s.Normalize()
	if s != DefaultSpec() {
		t.Fatalf("normalized zero spec = %+v; want DefaultSpec %+v", s, DefaultSpec())
	}
	s = Spec{Model: "mlp", Epochs: 3, LR: 0.5, WeightDecay: 1e-4, KidSketch: "srht"}
	s.Normalize()
	want := DefaultSpec()
	want.Model, want.Epochs, want.LR, want.WeightDecay, want.KidSketch = "mlp", 3, 0.5, 1e-4, "srht"
	if s != want {
		t.Fatalf("normalized = %+v; want %+v", s, want)
	}
	s.Normalize()
	if s != want {
		t.Fatalf("normalize not idempotent: %+v", s)
	}
}

// TestSpecJob: the one Spec → train.Job mapping carries every training
// field into the Config and picks ADAM by optimizer name.
func TestSpecJob(t *testing.T) {
	s := DefaultSpec()
	s.Model, s.Optimizer, s.Epochs, s.Batch, s.WeightDecay = "mlp", "adam", 3, 16, 1e-4
	job, err := s.Job()
	if err != nil {
		t.Fatal(err)
	}
	c := job.Config
	if c.Epochs != 3 || c.BatchSize != 16 || c.LR.Base != s.LR || c.LR.Gamma != 0.1 ||
		c.Momentum != s.Momentum || c.WeightDecay != 1e-4 || c.UpdateFreq != s.UpdateFreq ||
		c.Damping != s.Damping || c.Seed != s.Seed || !c.Adam {
		t.Fatalf("config = %+v; does not carry spec %+v", c, s)
	}
	if job.Precond != nil || job.Build == nil || job.Train == nil || job.Target != 0.9 {
		t.Fatalf("adam job: precond %v, build %v, train %v, target %g", job.Precond != nil,
			job.Build != nil, job.Train != nil, job.Target)
	}
	s.Optimizer = "hylo"
	if job, err = s.Job(); err != nil || job.Precond == nil || job.Config.Adam {
		t.Fatalf("hylo job: err %v, precond %v, adam %v", err, job.Precond != nil, job.Config.Adam)
	}
	if o := s.PrecondOpts(); o.Damping != s.Damping || o.RankFrac != s.RankFrac || o.Eta != s.Eta ||
		o.IDTol != s.IDTol || o.KidSketch != core.SketchOff || o.KidOversample != s.KidOversample {
		t.Fatalf("PrecondOpts = %+v; does not carry spec %+v", o, s)
	}
}

func TestParseKidSketch(t *testing.T) {
	for mode, want := range map[string]core.Sketch{
		"": core.SketchOff, "off": core.SketchOff,
		"gauss": core.SketchGauss, "srht": core.SketchSRHT,
	} {
		got, err := ParseKidSketch(mode)
		if err != nil || got != want {
			t.Errorf("ParseKidSketch(%q) = (%v, %v); want (%v, nil)", mode, got, err, want)
		}
	}
	if _, err := ParseKidSketch("gaussian"); err == nil {
		t.Fatal("unknown sketch mode accepted")
	}
	// The flag vocabulary and the core enum round-trip.
	for _, mode := range []string{"off", "gauss", "srht"} {
		s, err := ParseKidSketch(mode)
		if err != nil {
			t.Fatalf("documented mode %q rejected: %v", mode, err)
		}
		if s.String() != mode {
			t.Errorf("mode %q round-trips to %q", mode, s.String())
		}
	}
}

func TestValidateKidOversample(t *testing.T) {
	for _, n := range []int{0, 1, 8, MaxKidOversample} {
		if err := ValidateKidOversample(n); err != nil {
			t.Errorf("oversample %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{-1, -100, MaxKidOversample + 1} {
		err := ValidateKidOversample(n)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("-kid-oversample must be in [1, %d], or 0 for the default (got %d)", MaxKidOversample, n)) {
			t.Errorf("oversample %d: err = %v; want the flag's range message carrying the value", n, err)
		}
	}
}

func TestParseDecayEpochs(t *testing.T) {
	if d, err := ParseDecayEpochs(""); d != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v); want (nil, nil)", d, err)
	}
	d, err := ParseDecayEpochs("60, 30")
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 || d[0] != 30 || d[1] != 60 {
		t.Fatalf("decays = %v; want sorted [30 60]", d)
	}
	for _, bad := range []string{"x", "3,-1", "3,,5"} {
		if _, err := ParseDecayEpochs(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
}

// firstBatchHash is batchHash(w.Train, 4) of BuildWorkload(model, 3, 8, 1),
// recorded before BuildWorkload became a table.
var firstBatchHash = map[string]uint64{
	"3c1f": 0x732c67889677640b, "mlp": 0x293a87c81e104b69,
	"resnet": 0xdb065d02e82eb303, "densenet": 0xdb065d02e82eb303,
	"unet": 0xacfc7dfc556d15c6, "vit": 0x732c67889677640b,
}

// batchHash is FNV-1a over the bits of the first n samples and targets.
func batchHash(d *data.Dataset, n int) uint64 {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, tgt := d.Batch(idx)
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range x.Data() {
		put(math.Float64bits(v))
	}
	for _, l := range tgt.Labels {
		put(uint64(l))
	}
	if tgt.Dense != nil {
		for _, v := range tgt.Dense.Data() {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

func TestBuildWorkloadAllModels(t *testing.T) {
	for _, model := range Models() {
		w, err := BuildWorkload(model, 3, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if w.Build == nil || w.Train == nil || w.Test == nil || w.Task.Loss == nil {
			t.Fatalf("%s: incomplete workload", model)
		}
		if w.Target <= 0 || w.Target > 1 {
			t.Fatalf("%s: target %g out of range", model, w.Target)
		}
		// The builder must produce a net compatible with the data.
		net := w.Build(mat.NewRNG(1))
		x, _ := w.Train.Batch([]int{0})
		out := net.Forward(x, false)
		if out.Rows() != 1 {
			t.Fatalf("%s: forward produced %d rows", model, out.Rows())
		}
		// A model name must keep meaning the same data: the first training
		// batch (rows 0-3 of the split) is pinned bit for bit.
		if got := batchHash(w.Train, 4); got != firstBatchHash[model] {
			t.Errorf("%s: first training batch hashes to %#x; want %#x", model, got, firstBatchHash[model])
		}
	}
	if _, err := BuildWorkload("nope", 3, 8, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPrecondFactoryAllOptimizers(t *testing.T) {
	firstOrder := map[string]bool{"sgd": true, "adam": true}
	for _, o := range Optimizers() {
		f, err := PrecondFactory(o, PrecondOpts{Damping: 0.1, RankFrac: 0.1, Eta: 0.25, IDTol: 1e-12})
		if err != nil {
			t.Fatalf("%s: %v", o, err)
		}
		if firstOrder[o] {
			if f != nil {
				t.Fatalf("%s: expected nil factory", o)
			}
			continue
		}
		if f == nil {
			t.Fatalf("%s: nil factory", o)
		}
		w, err := BuildWorkload("mlp", 3, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		net := w.Build(mat.NewRNG(2))
		pre := f(net, dist.Local(), nil, mat.NewRNG(3))
		if pre == nil || pre.Name() == "" {
			t.Fatalf("%s: factory produced invalid preconditioner", o)
		}
	}
	if _, err := PrecondFactory("nope", PrecondOpts{Damping: 0.1, RankFrac: 0.1, Eta: 0.25}); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}

func TestParseFaultSpec(t *testing.T) {
	if plan, err := ParseFaultSpec(""); plan != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v); want (nil, nil)", plan, err)
	}

	plan, err := ParseFaultSpec("panic:1@40,bitflip:0.01,delay:0.1@5ms")
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanicRank != 1 || plan.PanicStep != 40 {
		t.Fatalf("panic = rank %d step %d; want 1@40", plan.PanicRank, plan.PanicStep)
	}
	if plan.BitFlipProb != 0.01 {
		t.Fatalf("bitflip prob = %v; want 0.01", plan.BitFlipProb)
	}
	if plan.StragglerProb != 0.1 || plan.StragglerDelay != 5*time.Millisecond {
		t.Fatalf("delay = %v@%v; want 0.1@5ms", plan.StragglerProb, plan.StragglerDelay)
	}
	if !plan.Enabled() {
		t.Fatal("parsed plan reports disabled")
	}

	// Degenerate payload injection parses kind and probability.
	plan, err = ParseFaultSpec("degenerate:dup@1")
	if err != nil {
		t.Fatal(err)
	}
	if plan.DegenerateKind != "dup" || plan.DegenerateProb != 1 {
		t.Fatalf("degenerate = %s@%v; want dup@1", plan.DegenerateKind, plan.DegenerateProb)
	}
	if !plan.Enabled() {
		t.Fatal("degenerate-only plan reports disabled")
	}

	// A spec without panic must leave panic injection off.
	plan, err = ParseFaultSpec("bitflip:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanicStep >= 0 {
		t.Fatalf("panic step = %d; want negative (disabled)", plan.PanicStep)
	}

	bad := []string{
		"panic:1",                // missing @STEP
		"panic:x@4",              // bad rank
		"panic:1@-2",             // negative step
		"bitflip:0",              // prob out of range
		"bitflip:1.5",            // prob out of range
		"delay:0.1",              // missing duration
		"delay:0.1@bogus",        // bad duration
		"delay:2@5ms",            // prob out of range
		"gremlins:1",             // unknown kind
		"panic",                  // no args
		"panic:1@40,oops:",       // trailing bad directive
		"degenerate:dup",         // missing @PROB
		"degenerate:dup@0",       // prob out of range
		"degenerate:dup@1.5",     // prob out of range
		"degenerate:gremlin@0.5", // unknown kind
	}
	for _, spec := range bad {
		if _, err := ParseFaultSpec(spec); err == nil {
			t.Errorf("spec %q: expected error, got nil", spec)
		}
	}
}

// TestValidateListenAddr: the shared hylo-train -listen / hylo-serve -addr
// rule set.
func TestValidateListenAddr(t *testing.T) {
	good := []string{
		":0", ":7077", "127.0.0.1:9000", "0.0.0.0:80",
		"localhost:7077", "node-3.cluster:65535", "[::1]:7077",
	}
	for _, addr := range good {
		if err := ValidateListenAddr(addr); err != nil {
			t.Errorf("addr %q: unexpected error %v", addr, err)
		}
	}
	bad := []string{
		"",           // empty
		"7077",       // no colon
		"host:",      // missing port
		"host:port",  // non-numeric port
		"host:70777", // port out of range
		"host:-1",    // negative port
		"a b:7077",   // whitespace host
		"::1:7077",   // unbracketed IPv6
		"host:1:2",   // too many colons
	}
	for _, addr := range bad {
		if err := ValidateListenAddr(addr); err == nil {
			t.Errorf("addr %q: expected error, got nil", addr)
		}
	}
}

// TestParsePeerList: the -join / net_peers grammar.
func TestParsePeerList(t *testing.T) {
	peers, err := ParsePeerList("")
	if err != nil || peers != nil {
		t.Fatalf("empty spec: got (%v, %v), want (nil, nil)", peers, err)
	}
	peers, err = ParsePeerList("10.0.0.1:7077, 10.0.0.2:7077 ,localhost:9000")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.1:7077", "10.0.0.2:7077", "localhost:9000"}
	if len(peers) != len(want) {
		t.Fatalf("got %v, want %v", peers, want)
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peer %d: got %q, want %q", i, peers[i], want[i])
		}
	}
	bad := []string{
		",",                           // empty entry
		"10.0.0.1:7077,",              // trailing empty
		"10.0.0.1:7077,10.0.0.1:7077", // duplicate
		"10.0.0.1",                    // no port
		"10.0.0.1:7077,host:",         // bad second entry
	}
	for _, spec := range bad {
		if _, err := ParsePeerList(spec); err == nil {
			t.Errorf("spec %q: expected error, got nil", spec)
		}
	}
}

// TestValidateBarrierTimeout: zero disables, sane range enforced.
func TestValidateBarrierTimeout(t *testing.T) {
	for _, d := range []time.Duration{0, 10 * time.Millisecond, 30 * time.Second, time.Hour} {
		if err := ValidateBarrierTimeout(d); err != nil {
			t.Errorf("timeout %v: unexpected error %v", d, err)
		}
	}
	for _, d := range []time.Duration{-time.Second, time.Millisecond, time.Hour + time.Second} {
		if err := ValidateBarrierTimeout(d); err == nil {
			t.Errorf("timeout %v: expected error, got nil", d)
		}
	}
}
