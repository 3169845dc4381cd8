package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"text/tabwriter"
)

// AllOpts configures a full run: every workload, each run in a fresh child
// process so that peak RSS, mat's pools, the scheduler's workers and GC
// state do not leak from one workload into the next.
type AllOpts struct {
	Run      string // regular expression over workload names; empty matches all
	Seed     uint64
	Seconds  float64
	Procs    int
	Repeat   int // end-to-end runs per workload, on seeds Seed, Seed+1, …
	Smoke    bool
	Out      string
	TraceDir string
}

// Point is one metric of one run.
type Point struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Series is one end-to-end metric over a workload's repeated runs.
type Series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the distance between the first and third quartile as a
	// share of the median; 0 with fewer than two runs.
	Spread float64 `json:"spread"`
}

// WorkloadDoc is one workload's part of the document.
type WorkloadDoc struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	EndToEnd  map[string]Series `json:"end_to_end"`
	PerLayer  map[string]Point  `json:"per_layer"`
}

// Doc is the JSON document of a full run; -compare reads two of them.
type Doc struct {
	Env       Env           `json:"env"`
	Seed      uint64        `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Repeat    int           `json:"repeat"`
	Workloads []WorkloadDoc `json:"workloads"`
}

// detail is the line a single-workload run prints before its result object:
// the same metrics with their sample counts, and what each failed check
// found. A full run reads it from its children.
type detail struct {
	Workload  string           `json:"workload"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Samples   map[string]Point `json:"samples"`
}

// DetailLine renders the run with sample counts, one JSON object.
func (r *Result) DetailLine() ([]byte, error) {
	d := detail{Workload: r.Workload, Attempted: r.Attempted, Failed: r.Failed,
		Failures: r.Failures, Samples: map[string]Point{}}
	for _, def := range Defs(r.Trace) {
		s := r.Samples[def.Name]
		d.Samples[def.Name] = Point{Value: s.Value, Unit: def.Unit, N: s.N}
	}
	return json.Marshal(d)
}

// runChild runs one workload once in a fresh process of this executable,
// pinned to the parent's numeric kernel family, and returns the run's
// detail line. The child's tables pass through to standard error.
func runChild(o AllOpts, name string, seed uint64, trace int, fma bool) (*detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("own executable: %w", err)
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.Seconds),
		"-trace", fmt.Sprint(trace), "-procs", fmt.Sprint(o.Procs)}
	if o.Smoke {
		args = append(args, "-smoke")
	}
	if o.TraceDir != "" {
		args = append(args, "-trace-dir", o.TraceDir)
	}
	cmd := exec.Command(exe, args...)
	pin := "HYLO_FMA=0"
	if fma {
		pin = "HYLO_FMA=1"
	}
	cmd.Env = append(os.Environ(), pin)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	// A child that failed a correctness check still prints its lines and
	// exits 1; only a child that printed nothing is an error here.
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("workload %s (trace %d) printed no result: %v", name, trace, runErr)
	}
	var d detail
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		return nil, fmt.Errorf("workload %s (trace %d): detail line: %w", name, trace, err)
	}
	return &d, nil
}

// RunAll runs the selected workloads one after another, each run in a
// fresh child: Repeat end-to-end runs on consecutive seeds, then one traced
// run. It prints every metric by name with unit and sample count, the
// per-workload profile, and the JSON document, and returns an error if any
// correctness check failed.
func RunAll(w io.Writer, o AllOpts) error {
	re, err := regexp.Compile(o.Run)
	if err != nil {
		return fmt.Errorf("-run: %w", err)
	}
	o.Procs = SetProcs(o.Procs)
	o.Repeat = max(1, o.Repeat)
	doc := Doc{Env: ReadEnv(), Seed: o.Seed, Seconds: o.Seconds, Repeat: o.Repeat}
	failed := 0
	for _, name := range WorkloadNames() {
		if !re.MatchString(name) {
			continue
		}
		wd := WorkloadDoc{Name: name, EndToEnd: map[string]Series{}, PerLayer: map[string]Point{}}
		add := func(d *detail) {
			wd.Attempted += d.Attempted
			wd.Failed += d.Failed
			wd.Failures = append(wd.Failures, d.Failures...)
		}
		for i := 0; i < o.Repeat; i++ {
			d, err := runChild(o, name, o.Seed+uint64(i), 0, doc.Env.FMA)
			if err != nil {
				return err
			}
			add(d)
			for _, def := range EndToEnd {
				s := wd.EndToEnd[def.Name]
				s.Unit = def.Unit
				s.Values = append(s.Values, d.Samples[def.Name].Value)
				wd.EndToEnd[def.Name] = s
			}
		}
		for name, s := range wd.EndToEnd {
			s.Median, s.Spread = Median(s.Values), Spread(s.Values)
			wd.EndToEnd[name] = s
		}
		d, err := runChild(o, name, o.Seed, 1, doc.Env.FMA)
		if err != nil {
			return err
		}
		add(d)
		wd.PerLayer = d.Samples
		failed += wd.Failed
		doc.Workloads = append(doc.Workloads, wd)
		wd.write(w)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode document: %w", err)
	}
	fmt.Fprintf(w, "%s\n", b)
	if o.Out != "" {
		if err := os.WriteFile(o.Out, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("write document: %w", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d correctness checks failed", failed)
	}
	return nil
}

// write prints one workload's metrics and its ranked profile.
func (wd WorkloadDoc) write(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\tmedian\tunit\truns\tspread\n", wd.Name)
	for _, def := range EndToEnd {
		s := wd.EndToEnd[def.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\t%.1f %%\n", def.Name, s.Median, s.Unit, len(s.Values), 100*s.Spread)
	}
	fmt.Fprintf(tw, "  \tvalue\tunit\tn\t\n")
	r := newResult(wd.Name, true)
	for _, def := range PerLayer {
		p := wd.PerLayer[def.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%d\t\n", def.Name, p.Value, p.Unit, p.N)
		r.Samples[def.Name] = Sample{Value: p.Value, N: p.N}
	}
	tw.Flush()
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", wd.Attempted, wd.Failed)
	for _, f := range wd.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	r.WriteProfile(w)
}
