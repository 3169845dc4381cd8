package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
)

// MetricDef names one metric of the benchmark. BENCHMARK.json carries the
// name, unit and direction (and alone carries the end-to-end bounds); Layer,
// Moves and Exact are the part of the definition that file has no key for.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Layer  string // module the metric belongs to
	// Moves says which end-to-end metric this one should move, and where.
	Moves string
	// Exact marks a count that must repeat exactly between two runs of one
	// seed; -compare reports any difference in it as worse.
	Exact bool
}

// EndToEnd lists the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var EndToEnd = []MetricDef{
	{Name: "samples_per_s", Unit: "samples/s", Better: "higher", Layer: "train",
		Moves: "training: samples of the operation's timed epochs ÷ the sum of their durations, each epoch at its fastest over the run's repetitions; serve_closed2: samples trained by verified jobs ÷ closed-loop wall, best round"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Layer: "train",
		Moves: "training: median over the operation's timed epochs (train + eval) of each epoch's fastest repetition; serve_closed2: median job latency, POST sent → result decoded, of the best round"},
	{Name: "setup_s", Unit: "s", Better: "lower", Layer: "harness",
		Moves: "operation start → first timed epoch (data synthesis, net build, rendezvous, warm-up epoch 0); serve: boot + recovery scan + warm-up jobs; fastest of the run's set-ups"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Layer: "harness",
		Moves: "VmHWM of the process when the end-to-end operations end"},
}

// PerLayer lists the traced run's metrics. They have no bound; Moves is the
// prediction a later change is checked against.
var PerLayer = []MetricDef{
	{Name: "train.step_ms", Unit: "ms", Better: "lower", Layer: "train", Moves: "sum of the phases below → samples_per_s, latency_p50_ms everywhere"},
	{Name: "train.steps", Unit: "count", Better: "lower", Layer: "train", Exact: true, Moves: "steps of one end-to-end operation; must not move unless arithmetic changed"},
	{Name: "train.time_to_target_s", Unit: "s", Better: "lower", Layer: "train", Moves: "train.Result.TimeToTarget of the traced run's long operation = train.epochs_to_target × epoch time (latency_p50_ms); per layer because it moves in whole epochs from seed to seed"},
	{Name: "train.epochs_to_target", Unit: "count", Better: "lower", Layer: "train", Exact: true, Moves: "× latency_p50_ms → train.time_to_target_s"},
	{Name: "train.final_loss", Unit: "loss", Better: "lower", Layer: "train", Exact: true, Moves: "must not move unless arithmetic changed"},
	{Name: "train.kid_epochs", Unit: "count", Better: "lower", Layer: "train", Exact: true, Moves: "cnn_local mode mix"},
	{Name: "train.kis_epochs", Unit: "count", Better: "lower", Layer: "train", Exact: true, Moves: "cnn_local mode mix"},
	{Name: "train.kid_epoch_ms", Unit: "ms", Better: "lower", Layer: "train", Moves: "a KID change shows here on cnn_local while its samples_per_s stays"},
	{Name: "train.kis_epoch_ms", Unit: "ms", Better: "lower", Layer: "train", Moves: "a KIS change shows here on cnn_local"},
	{Name: "train.eval_ms", Unit: "ms", Better: "lower", Layer: "train", Moves: "per-epoch train.Evaluate → latency_p50_ms"},
	{Name: "train.alloc_kb_per_step", Unit: "KB", Better: "lower", Layer: "train", Moves: "→ peak_rss_mb and GC time in samples_per_s"},
	{Name: "train.unattributed_pct", Unit: "%", Better: "lower", Layer: "train", Moves: "end-to-end ms/step the traced phases do not explain; a finding, not noise"},
	{Name: "train.other_ms", Unit: "ms", Better: "lower", Layer: "train", Moves: "gradient clone + KL clip around Precondition, as the trainer does them"},
	{Name: "data.batch_us", Unit: "us", Better: "lower", Layer: "data", Moves: "step wait for input → samples_per_s; expected < 1 % everywhere"},
	{Name: "nn.forward_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "samples_per_s on cnn_local (≥ 80 % of the step with backward), ≈ 35 % on *_deep_*"},
	{Name: "nn.backward_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "as nn.forward_ms"},
	{Name: "nn.capture_extra_ms", Unit: "ms", Better: "lower", Layer: "nn", Moves: "forward+backward with capture on − off → samples_per_s on update steps"},
	{Name: "core.update_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "samples_per_s on kid_deep_* (≈ 60 % local); only train.kid_epoch_ms on cnn_local"},
	{Name: "core.update_self_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "update minus the collectives it waits for"},
	{Name: "core.precondition_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "samples_per_s on kid_deep_*"},
	{Name: "core.kid_factors_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "KIDFactors on the widest layer's captured A, G → core.update_ms"},
	{Name: "core.kis_factors_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "KISFactors on the same A, G → core.update_ms in KIS epochs"},
	{Name: "core.kid_sketch_srht_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "KIDFactorsSketch (SRHT) on the same A, G; what a sketch change claims on"},
	{Name: "core.state_kb", Unit: "KB", Better: "lower", Layer: "core", Moves: "→ peak_rss_mb"},
	{Name: "kfac.update_ms", Unit: "ms", Better: "lower", Layer: "kfac", Moves: "samples_per_s, train.time_to_target_s on kfac_deep_local only"},
	{Name: "kfac.update_self_ms", Unit: "ms", Better: "lower", Layer: "kfac", Moves: "as kfac.update_ms"},
	{Name: "kfac.precondition_ms", Unit: "ms", Better: "lower", Layer: "kfac", Moves: "as kfac.update_ms"},
	{Name: "kfac.state_kb", Unit: "KB", Better: "lower", Layer: "kfac", Moves: "→ peak_rss_mb on kfac_deep_local"},
	{Name: "opt.step_us", Unit: "us", Better: "lower", Layer: "opt", Moves: "< 1 % everywhere; listed so an accidental regression shows"},
	{Name: "sched.run_overhead_us", Unit: "us", Better: "lower", Layer: "sched", Moves: "sched.Run over an 8×4 no-op stage graph → core/kfac update_ms"},
	{Name: "sched.update_speedup", Unit: "ratio", Better: "higher", Layer: "sched", Moves: "Update at workers 1 ÷ workers 2 → at -procs 2, samples_per_s on kid_deep_local, kfac_deep_local; no change predicted on the P=2 rows; reads 1 at the default -procs 1"},
	{Name: "sched.tokens_high_water", Unit: "count", Better: "lower", Layer: "sched", Moves: "never above GOMAXPROCS"},
	{Name: "dist.calls_per_step", Unit: "count", Better: "lower", Layer: "dist", Exact: true, Moves: "identical on kid_deep_inproc_p2 and kid_deep_tcp_p2; zero on *_local"},
	{Name: "dist.bytes_per_step", Unit: "bytes", Better: "lower", Layer: "dist", Exact: true, Moves: "computed from matrix dimensions; as dist.calls_per_step"},
	{Name: "dist.allreduce_grad_ms", Unit: "ms", Better: "lower", Layer: "dist", Moves: "samples_per_s on the P=2 rows"},
	{Name: "dist.allgather_ms", Unit: "ms", Better: "lower", Layer: "dist", Moves: "→ core.update_ms on the P=2 rows"},
	{Name: "dist.broadcast_ms", Unit: "ms", Better: "lower", Layer: "dist", Moves: "→ core.update_ms on the P=2 rows"},
	{Name: "dist.allreduce_scalar_us", Unit: "us", Better: "lower", Layer: "dist", Moves: "latency floor of one collective"},
	{Name: "dist.comm_share_pct", Unit: "%", Better: "lower", Layer: "dist", Moves: "rank 0 time inside collectives ÷ step → samples_per_s on the P=2 rows"},
	{Name: "dist.rank_skew_ms", Unit: "ms", Better: "lower", Layer: "dist", Moves: "max − min compute per step across ranks; the slowest rank sets the step"},
	{Name: "dist_net.rendezvous_ms", Unit: "ms", Better: "lower", Layer: "dist_net", Moves: "→ setup_s on kid_deep_tcp_p2"},
	{Name: "dist_net.coord_rx_bytes_per_step", Unit: "bytes", Better: "lower", Layer: "dist_net", Moves: "Proc.NetBytes at the coordinator → samples_per_s on kid_deep_tcp_p2"},
	{Name: "dist_net.coord_tx_bytes_per_step", Unit: "bytes", Better: "lower", Layer: "dist_net", Moves: "as coord_rx_bytes_per_step"},
	{Name: "dist_net.wire_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "dist_net", Moves: "coordinator rx ÷ computed payload"},
	{Name: "dist_net.allreduce_hub_us", Unit: "us", Better: "lower", Layer: "dist_net", Moves: "1 MiB all-reduce, P=2, hub → dist.allreduce_grad_ms on kid_deep_tcp_p2"},
	{Name: "dist_net.allreduce_tree_us", Unit: "us", Better: "lower", Layer: "dist_net", Moves: "the same over the tree topology; recorded because tree was slower than hub at P=2"},
	{Name: "dist_net.wire_tax_pct", Unit: "%", Better: "lower", Layer: "dist_net", Moves: "1 − tcp ÷ in-process samples/s of the same operation; samples_per_s and setup_s on kid_deep_tcp_p2 only"},
	{Name: "mat.gemm512_gflops", Unit: "GFLOP/s", Better: "higher", Layer: "mat", Moves: "→ nn.* → cnn_local"},
	{Name: "mat.kernelmatrix256_ms", Unit: "ms", Better: "lower", Layer: "mat", Moves: "→ core.update_ms → kid_deep_*"},
	{Name: "mat.qrpivot256_ms", Unit: "ms", Better: "lower", Layer: "mat", Moves: "→ core.update_ms → kid_deep_*"},
	{Name: "mat.id256_ms", Unit: "ms", Better: "lower", Layer: "mat", Moves: "→ core.update_ms → kid_deep_*"},
	{Name: "mat.randid_srht256_ms", Unit: "ms", Better: "lower", Layer: "mat", Moves: "→ core.kid_sketch_srht_ms"},
	{Name: "mat.invspd256_ms", Unit: "ms", Better: "lower", Layer: "mat", Moves: "→ core.update_ms, kfac.update_ms"},
	{Name: "mat.symeig256_ms", Unit: "ms", Better: "lower", Layer: "mat", Moves: "→ kfac.update_ms → kfac_deep_local"},
	{Name: "mat.pool_miss_per_step", Unit: "count", Better: "lower", Layer: "mat", Moves: "→ train.alloc_kb_per_step, peak_rss_mb"},
	{Name: "ckpt.load_ms", Unit: "ms", Better: "lower", Layer: "ckpt", Moves: "recovery time; nothing in a steady run"},
	{Name: "ckpt.save_ms", Unit: "ms", Better: "lower", Layer: "ckpt", Moves: "latency_p50_ms on serve_closed2 (checkpoint every epoch), samples_per_s on kid_deep_tcp_p2"},
	{Name: "ckpt.bytes", Unit: "bytes", Better: "lower", Layer: "ckpt", Moves: "→ ckpt.save_ms"},
	{Name: "serve.jobs_per_s", Unit: "jobs/s", Better: "higher", Layer: "serve", Moves: "= samples_per_s ÷ samples per job on serve_closed2"},
	{Name: "serve.job_latency_p50_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "the traced run's own median job latency: the base its phases are ranked against"},
	{Name: "serve.job_latency_p95_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "queue_wait grows first under contention, so this moves before jobs_per_s"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "latency_p50_ms = submit + queue_wait + run + done_to_result"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "as serve.submit_ms"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "as serve.submit_ms; the share of it that is training is serve.train_share_pct"},
	{Name: "serve.done_to_result_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "as serve.submit_ms"},
	{Name: "serve.train_share_pct", Unit: "%", Better: "lower", Layer: "serve", Moves: "in-job training time (the result's last elapsed_s minus the earlier epochs' checkpoint saves at ckpt.save_ms) ÷ job latency; must stay < 50 % for the workload to measure serve"},
	{Name: "serve.submit_to_first_epoch_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "POST → first poll showing a finished epoch"},
	{Name: "serve.status_get_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "one status poll → serve.polls_per_job × this is the client's polling cost"},
	{Name: "serve.list_get_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "GET /v1/jobs beside the writes; grows with the registry"},
	{Name: "serve.metrics_get_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "GET /metrics beside the writes"},
	{Name: "serve.polls_per_job", Unit: "count", Better: "lower", Layer: "serve", Moves: "≈ job latency ÷ 1 ms poll interval"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Layer: "serve", Moves: "4xx/5xx or refused submits; each is a failed operation"},
	{Name: "serve_queue.push_pop_ns", Unit: "ns", Better: "lower", Layer: "serve_queue", Moves: "→ serve.queue_wait_ms"},
	{Name: "serve_runner.journal_bytes_per_job", Unit: "bytes", Better: "lower", Layer: "serve_runner", Moves: "→ serve.run_ms"},
	{Name: "serve_runner.artifact_bytes_per_job", Unit: "bytes", Better: "lower", Layer: "serve_runner", Moves: "→ serve.run_ms"},
	{Name: "serve_runner.result_file_torn", Unit: "count", Better: "lower", Layer: "serve_runner", Moves: "result.json files that did not decode when read right after done was observed: the publish-before-persist window"},
	{Name: "telemetry.enabled_overhead_pct", Unit: "%", Better: "lower", Layer: "telemetry", Moves: "traced loop with telemetry on vs off on kid_deep_inproc_p2; must stay small"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "harness", Moves: "traced vs untraced blocks of the same loop; must stay small"},
}

// Sample is one measured metric: its value and how many samples it
// summarises.
type Sample struct {
	Value float64
	N     int
}

// Result is what one run of one workload measured.
type Result struct {
	Workload  string
	Trace     bool
	Attempted int
	Failed    int
	// Failures says what each failed check found.
	Failures []string
	// Notes are raw readings worth a line under the table.
	Notes   []string
	Samples map[string]Sample
}

func newResult(workload string, trace bool) *Result {
	return &Result{Workload: workload, Trace: trace, Samples: map[string]Sample{}}
}

// Set records a metric. Recording a name the registry does not list is a
// bug in the harness, so it panics.
func (r *Result) Set(name string, value float64, n int) {
	if _, ok := defByName[name]; !ok {
		panic(fmt.Sprintf("harness: metric %q is not in the registry", name))
	}
	r.Samples[name] = Sample{Value: value, N: n}
}

// Fail records a failed correctness check.
func (r *Result) Fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

var defByName = func() map[string]MetricDef {
	m := map[string]MetricDef{}
	for _, d := range EndToEnd {
		m[d.Name] = d
	}
	for _, d := range PerLayer {
		m[d.Name] = d
	}
	return m
}()

// Defs returns the metric list a run with the given trace setting reports.
func Defs(trace bool) []MetricDef {
	if trace {
		return PerLayer
	}
	return EndToEnd
}

// ContractDefs returns the metrics of Defs(trace) that BENCHMARK.json lists.
// The serve and serve_runner layers only run on serve_closed2, which the
// contract does not gate (spec.go, ContractWorkloadNames), so their metrics
// would read 0 on every run the contract makes.
func ContractDefs(trace bool) []MetricDef {
	var defs []MetricDef
	for _, d := range Defs(trace) {
		if d.Layer != "serve" && d.Layer != "serve_runner" {
			defs = append(defs, d)
		}
	}
	return defs
}

// contractMetric is one entry of the result line's metrics object.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ContractLine renders the run as the single JSON object the benchmark
// contract asks for on the last line of standard output: every metric
// BENCHMARK.json lists for the run's kind, by name, with its unit. A metric
// the workload has no layer for reads 0.
func (r *Result) ContractLine() ([]byte, error) {
	metrics := map[string]contractMetric{}
	for _, d := range ContractDefs(r.Trace) {
		v := r.Samples[d.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		metrics[d.Name] = contractMetric{Value: v, Unit: d.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	})
}

// WriteTable prints every metric of the run by name with unit and sample
// count.
func (r *Result) WriteTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tvalue\tunit\tn\n", r.Workload)
	for _, d := range Defs(r.Trace) {
		s := r.Samples[d.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\n", d.Name, s.Value, d.Unit, s.N)
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// stepPhases names the per-layer metrics that are phases of one training
// step, in milliseconds unless scaled, so they can be ranked by share.
var stepPhases = []struct {
	name      string
	scale     float64 // to milliseconds
	perUpdate bool    // runs every UpdateFreq-th step only
}{
	{"data.batch_us", 1e-3, false}, {"nn.forward_ms", 1, false}, {"nn.backward_ms", 1, false},
	{"dist.allreduce_grad_ms", 1, false}, {"core.update_ms", 1, true}, {"core.precondition_ms", 1, false},
	{"kfac.update_ms", 1, true}, {"kfac.precondition_ms", 1, false}, {"train.other_ms", 1, false},
	{"opt.step_us", 1e-3, false},
}

var jobPhases = []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.run_ms", "serve.done_to_result_ms"}

// WriteProfile prints the traced run's phases ranked by their share of
// train.step_ms, or of the median job latency on the serve workload: the
// profile an optimisation is to be chosen from.
func (r *Result) WriteProfile(w io.Writer) {
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	base, of := r.Samples["train.step_ms"].Value, "train.step_ms"
	if base > 0 {
		freq := 1.0
		for _, s := range TrainSpecs() {
			if s.Name == r.Workload {
				freq = float64(s.UpdateFreq)
			}
		}
		for _, p := range stepPhases {
			ms := r.Samples[p.name].Value * p.scale
			if p.perUpdate {
				ms /= freq // a per-call median, spread over the steps between two updates
			}
			rows = append(rows, row{p.name, ms})
		}
	} else {
		base, of = r.Samples["serve.job_latency_p50_ms"].Value, "serve.job_latency_p50_ms"
		for _, name := range jobPhases {
			rows = append(rows, row{name, r.Samples[name].Value})
		}
	}
	if base <= 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(w, "%s: phases ranked by share of %s (%.3f ms)\n", r.Workload, of, base)
	for _, x := range rows {
		if x.ms <= 0 {
			continue
		}
		fmt.Fprintf(w, "  %-28s %9.3f ms  %5.1f %%  %s\n", x.name, x.ms, 100*x.ms/base,
			strings.Repeat("#", int(40*x.ms/base)))
	}
}
