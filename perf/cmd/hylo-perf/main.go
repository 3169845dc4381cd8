// Command hylo-perf is the repository's benchmark: six workloads, each
// measured end to end through the program's own entry points and, in a
// separate traced run, layer by layer from outside.
//
// One workload, as BENCHMARK.json's command runs it (the last line of
// standard output is the result object; tables go to standard error):
//
//	hylo-perf --workload kid_deep_local --seed 1 --seconds 25 --trace 0
//
// Every workload, each in a fresh child process, end to end and traced,
// with a table, the ranked profile and a JSON document:
//
//	hylo-perf -all [-run REGEX] [-repeat N] [-out FILE] [-trace-dir DIR]
//
// Two such documents against the bounds in BENCHMARK.json:
//
//	hylo-perf -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/perf/harness"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload and print the result object")
		seed      = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds   = flag.Float64("seconds", 25, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: end-to-end run, tracing off; 1: traced run for the per-layer metrics")
		procs     = flag.Int("procs", 1, "GOMAXPROCS = scheduler workers; never more than the machine has (2 measures parallel paths, on a quiet machine)")
		traceDir  = flag.String("trace-dir", "", "write <workload>.trace.json (Chrome trace) here on traced runs")
		smoke     = flag.Bool("smoke", false, "toy sizes: every code path and check in seconds")
		all       = flag.Bool("all", false, "run every workload in child processes and print the whole report")
		runRE     = flag.String("run", "", "with -all: only workloads matching this regular expression")
		repeat    = flag.Int("repeat", 1, "with -all: end-to-end runs per workload, seeds seed, seed+1, …")
		out       = flag.String("out", "", "with -all: also write the JSON document to this file")
		compare   = flag.Bool("compare", false, "compare two -all documents: hylo-perf -compare A.json B.json")
		benchJSON = flag.String("benchmark", "BENCHMARK.json", "with -compare: the file the bounds are read from")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two documents")
			break
		}
		var worse bool
		worse, err = harness.CompareFiles(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1))
		if err == nil && worse {
			os.Exit(1)
		}
	case *all:
		err = harness.RunAll(os.Stdout, harness.AllOpts{
			Run: *runRE, Seed: *seed, Seconds: *seconds, Procs: *procs, Repeat: *repeat,
			Smoke: *smoke, Out: *out, TraceDir: *traceDir,
		})
	case *workload != "":
		err = runOne(*workload, *trace == 1, harness.RunOpts{
			Seed: *seed, Seconds: *seconds, Procs: *procs, TraceDir: *traceDir, Smoke: *smoke})
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hylo-perf:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process. A failed correctness check is
// reported in the result object and returned as an error.
func runOne(name string, trace bool, o harness.RunOpts) error {
	o.Procs = harness.SetProcs(o.Procs)
	dir, err := os.MkdirTemp("", "hylo-perf-")
	if err != nil {
		return fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)
	o.WorkDir = dir

	r, err := harness.RunWorkload(name, trace, o)
	if err != nil {
		return err
	}
	r.WriteTable(os.Stderr)
	if trace {
		r.WriteProfile(os.Stderr)
	}
	detail, err := r.DetailLine()
	if err != nil {
		return err
	}
	line, err := r.ContractLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", detail, line)
	if r.Failed > 0 {
		return fmt.Errorf("%d correctness checks failed", r.Failed)
	}
	return nil
}
