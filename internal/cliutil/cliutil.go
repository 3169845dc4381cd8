// Package cliutil holds what every front end that launches training shares
// — the hylo-train and hylo-bench CLIs and the hylo-serve job API: the run
// description (Spec) with its defaults, validation and mapping onto a
// train.Job, the flag grammars, and the workload and preconditioner
// builders. Keeping one copy here is what guarantees a value rejected on
// the command line is rejected identically, with the same message, by the
// server's job-spec validation.
//
// Everything returns errors; callers decide between os.Exit(2) (CLIs) and
// a 400 response (the server).
package cliutil

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/numerics"
	"repro/internal/telemetry"
)

// MaxKidOversample caps the -kid-oversample sketch width: widths beyond
// this defeat the point of sketching (the sketch approaches the full
// kernel) and only waste memory.
const MaxKidOversample = 512

// ValidateKidOversample rejects sketch widths outside [1, MaxKidOversample];
// 0 is accepted as "use the default" (core.DefaultOversample).
func ValidateKidOversample(n int) error {
	if n < 0 || n > MaxKidOversample {
		return fmt.Errorf("-kid-oversample must be in [1, %d], or 0 for the default (got %d)", MaxKidOversample, n)
	}
	return nil
}

// ParseKidSketch maps a -kid-sketch flag value onto core.Sketch. The empty
// string means off, so zero-valued specs stay valid.
func ParseKidSketch(mode string) (core.Sketch, error) {
	switch mode {
	case "", "off":
		return core.SketchOff, nil
	case "gauss":
		return core.SketchGauss, nil
	case "srht":
		return core.SketchSRHT, nil
	}
	return core.SketchOff, fmt.Errorf("-kid-sketch must be one of off|gauss|srht (got %q)", mode)
}

// Priority class ranks shared by the queue, the runner's preemption
// policy, and the job API. Higher ranks preempt lower ones.
const (
	PriorityLow    = 0
	PriorityNormal = 1
	PriorityHigh   = 2
)

// Priorities lists the job priority class names in ascending rank order.
func Priorities() []string { return []string{"low", "normal", "high"} }

// ParsePriority maps a priority class name onto its numeric rank. The
// empty string means normal, so zero-valued specs stay valid; anything
// else outside low|normal|high is rejected with the same message on the
// command line and in the job API.
func ParsePriority(s string) (int, error) {
	switch s {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("priority must be one of low|normal|high (got %q)", s)
}

// PriorityName renders a rank back into its class name (unknown ranks
// clamp into range, so persisted records from any version render).
func PriorityName(rank int) string {
	names := Priorities()
	if rank < 0 {
		rank = 0
	}
	if rank >= len(names) {
		rank = len(names) - 1
	}
	return names[rank]
}

// ValidateRetention checks the hylo-serve artifact-retention knobs: each
// is "0 disables" plus a non-negativity rule, and the GC interval has a
// floor so a typo cannot spin the sweeper hot.
func ValidateRetention(retainDone int, maxBytes int64, maxAge, interval time.Duration) error {
	if retainDone < 0 {
		return fmt.Errorf("-retain-done must be >= 0 (got %d)", retainDone)
	}
	if maxBytes < 0 {
		return fmt.Errorf("-retain-max-bytes must be >= 0 (got %d)", maxBytes)
	}
	if maxAge < 0 {
		return fmt.Errorf("-retain-age must be >= 0 (got %v)", maxAge)
	}
	if interval < 0 {
		return fmt.Errorf("-gc-interval must be >= 0 (got %v)", interval)
	}
	if interval > 0 && interval < time.Second {
		return fmt.Errorf("-gc-interval %v is below the 1s floor", interval)
	}
	return nil
}

// Observability is the flag block hylo-train and hylo-bench share: the
// telemetry exporters and the end-of-run reports.
type Observability struct {
	trace, metrics, events string
	summary, numReport     bool
}

// BindObservability registers -trace, -metrics, -events,
// -telemetry-summary and -numerics-report on fs.
func BindObservability(fs *flag.FlagSet) *Observability {
	o := &Observability{}
	fs.StringVar(&o.trace, "trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)")
	fs.StringVar(&o.metrics, "metrics", "", "write Prometheus text-format metrics to this file")
	fs.StringVar(&o.events, "events", "", "write the compact JSONL span/event log to this file")
	fs.BoolVar(&o.summary, "telemetry-summary", false, "print the top phase-time table at exit")
	fs.BoolVar(&o.numReport, "numerics-report", false, "print the numerical-health summary (condition estimates, damping retries, fallback rungs) at exit")
	return o
}

func (o *Observability) exporting() bool {
	return o.trace != "" || o.metrics != "" || o.events != "" || o.summary
}

// Start turns telemetry on when any exporter or the summary was asked for.
func (o *Observability) Start() {
	if o.exporting() {
		telemetry.SetEnabled(true)
	}
}

// Finish writes the telemetry files and prints the requested summaries to w.
func (o *Observability) Finish(w io.Writer) error {
	if o.exporting() {
		if err := telemetry.ExportFiles(o.trace, o.metrics, o.events); err != nil {
			return err
		}
		if o.summary {
			fmt.Fprintln(w, "\ntelemetry phase summary (top 15):")
			telemetry.WriteSummary(w, telemetry.Summarize(telemetry.Default().Trace.Events()), 15)
			telemetry.WriteNetSummary(w, telemetry.Default().Metrics)
		}
	}
	if o.numReport {
		fmt.Fprint(w, "\n"+numerics.Report())
	}
	return nil
}

// WriteCSV writes header and rows to path as CSV, creating its directory
// (hylo-train -csv, hylo-bench -csv).
func WriteCSV(path string, header []string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = csv.NewWriter(f).WriteAll(append([][]string{header}, rows...))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ParseDecayEpochs parses a comma-separated LR decay-epoch list ("30,60")
// into a sorted slice. The empty string returns nil (no decay).
func ParseDecayEpochs(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var decays []int
	for _, s := range strings.Split(spec, ",") {
		e, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-decay-at: %q is not an epoch number", s)
		}
		if e < 0 {
			return nil, fmt.Errorf("-decay-at: epoch %d is negative", e)
		}
		decays = append(decays, e)
	}
	sort.Ints(decays)
	return decays, nil
}

// ValidateListenAddr checks a TCP listen address ("host:port" with an
// optional host, ":0" for an ephemeral port). It is shared by hylo-train
// -listen and hylo-serve -addr, so both front ends reject the same strings.
func ValidateListenAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("listen address must not be empty")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("listen address %q: want HOST:PORT or :PORT (%v)", addr, err)
	}
	if port == "" {
		return fmt.Errorf("listen address %q: missing port", addr)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 || p > 65535 {
		return fmt.Errorf("listen address %q: port must be 0-65535", addr)
	}
	if host != "" {
		if ip := net.ParseIP(host); ip == nil {
			// Not an IP literal; accept hostnames but reject the obviously
			// malformed (whitespace, empty labels).
			if strings.ContainsAny(host, " \t") {
				return fmt.Errorf("listen address %q: bad host", addr)
			}
		}
	}
	return nil
}

// ParsePeerList parses a comma-separated list of HOST:PORT peer addresses
// (the hylo-train -join target), rejecting empties and duplicates. An
// empty spec returns (nil, nil).
func ParsePeerList(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	seen := map[string]bool{}
	var peers []string
	for _, part := range strings.Split(spec, ",") {
		addr := strings.TrimSpace(part)
		if addr == "" {
			return nil, fmt.Errorf("peer list %q: empty address entry", spec)
		}
		if err := ValidateListenAddr(addr); err != nil {
			return nil, fmt.Errorf("peer %q: %v", addr, err)
		}
		if seen[addr] {
			return nil, fmt.Errorf("peer list %q: duplicate address %q", spec, addr)
		}
		seen[addr] = true
		peers = append(peers, addr)
	}
	return peers, nil
}

// MaxBarrierTimeout caps -barrier-timeout: anything longer than this is a
// configuration mistake (the watchdog would never fire in practice).
const MaxBarrierTimeout = time.Hour

// ValidateBarrierTimeout checks the -barrier-timeout watchdog duration.
// Zero disables the watchdog and is valid; negative or absurd values are
// rejected.
func ValidateBarrierTimeout(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-barrier-timeout must be >= 0 (got %v)", d)
	}
	if d > 0 && d < 10*time.Millisecond {
		return fmt.Errorf("-barrier-timeout %v is below the 10ms floor (the watchdog would fire on healthy collectives)", d)
	}
	if d > MaxBarrierTimeout {
		return fmt.Errorf("-barrier-timeout must be <= %v (got %v)", MaxBarrierTimeout, d)
	}
	return nil
}

// ParseFaultSpec parses the -fault-inject chaos grammar: comma-separated
// directives of the form panic:RANK@STEP, bitflip:PROB, delay:PROB@DUR,
// degenerate:KIND@PROB. An empty spec returns (nil, nil) — chaos disabled.
func ParseFaultSpec(spec string) (*dist.FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan := &dist.FaultPlan{PanicStep: -1}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		kind, arg, ok := strings.Cut(part, ":")
		if !ok || arg == "" {
			return nil, fmt.Errorf("%q: want KIND:ARGS", part)
		}
		switch kind {
		case "panic":
			rs, ss, ok := strings.Cut(arg, "@")
			if !ok {
				return nil, fmt.Errorf("%q: want panic:RANK@STEP", part)
			}
			rank, err := strconv.Atoi(rs)
			if err != nil || rank < 0 {
				return nil, fmt.Errorf("%q: bad rank %q", part, rs)
			}
			step, err := strconv.Atoi(ss)
			if err != nil || step < 0 {
				return nil, fmt.Errorf("%q: bad step %q", part, ss)
			}
			plan.PanicRank, plan.PanicStep = rank, step
		case "bitflip":
			p, err := strconv.ParseFloat(arg, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("%q: probability must be in (0, 1]", part)
			}
			plan.BitFlipProb = p
		case "delay":
			ps, ds, ok := strings.Cut(arg, "@")
			if !ok {
				return nil, fmt.Errorf("%q: want delay:PROB@DUR", part)
			}
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("%q: probability must be in (0, 1]", part)
			}
			d, err := time.ParseDuration(ds)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("%q: bad duration %q", part, ds)
			}
			plan.StragglerProb, plan.StragglerDelay = p, d
		case "degenerate":
			ks, ps, ok := strings.Cut(arg, "@")
			if !ok {
				return nil, fmt.Errorf("%q: want degenerate:KIND@PROB", part)
			}
			switch ks {
			case "dup", "zero", "huge":
			default:
				return nil, fmt.Errorf("%q: kind must be dup, zero, or huge", part)
			}
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("%q: probability must be in (0, 1]", part)
			}
			plan.DegenerateKind, plan.DegenerateProb = ks, p
		default:
			return nil, fmt.Errorf("%q: unknown fault kind %q", part, kind)
		}
	}
	return plan, nil
}
