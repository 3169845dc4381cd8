// Command hylo-bench regenerates the paper's tables and figures. Each
// selected experiment runs once and its table feeds stdout, -csv and -report.
//
//	hylo-bench -exp fig7                   # one experiment
//	hylo-bench -exp all                    # everything (minutes)
//	hylo-bench -exp fig4,fig10 -quick      # a selection, reduced workloads
//	hylo-bench -list                       # enumerate experiment ids
//	hylo-bench -exp fig3 -csv out/         # also write CSV
//	hylo-bench -report report.md           # also write a markdown report
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cliutil"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on args; it returns 2 for a usage error (a malformed
// flag exits in Parse) and 1 for a failed write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hylo-bench", flag.ExitOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids (see -list) or 'all'")
	quick := fs.Bool("quick", false, "reduced workloads for a fast pass")
	seed := fs.Uint64("seed", 7, "deterministic seed")
	csvDir := fs.String("csv", "", "directory to write per-experiment CSV files")
	report := fs.String("report", "", "write a markdown report (tables, run times, fig6 accuracy sparklines) to this file")
	list := fs.Bool("list", false, "list experiment ids and exit")
	obs := cliutil.BindObservability(fs)
	kidSketch := fs.String("kid-sketch", "off", "randomized KID sketch for the HyLo experiments: off|gauss|srht")
	kidOversample := fs.Int("kid-oversample", 0, "sketch columns beyond the KID rank (0 = default)")
	fs.Parse(args)

	if *list {
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	exps, err := selectExperiments(*exp)
	if err == nil {
		_, err = cliutil.ParseKidSketch(*kidSketch)
	}
	if err == nil {
		err = cliutil.ValidateKidOversample(*kidOversample)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hylo-bench: %v\n", err)
		return 2
	}
	obs.Start()

	cfg := bench.RunConfig{Quick: *quick, Seed: *seed,
		KidSketch: *kidSketch, KidOversample: *kidOversample}
	var results []bench.Result
	for _, e := range exps {
		start := time.Now()
		tbl := e.Run(cfg)
		r := bench.Result{Table: tbl, Elapsed: time.Since(start)}
		fmt.Fprintln(stdout, tbl.String())
		fmt.Fprintf(stdout, "(%s completed in %.1fs)\n\n", e.ID, r.Elapsed.Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tbl); err != nil {
				fmt.Fprintf(stderr, "hylo-bench: csv: %v\n", err)
				return 1
			}
		}
		results = append(results, r)
	}

	if *report != "" {
		err = os.WriteFile(*report, []byte(bench.Report(cfg, results)), 0o644)
	}
	if err == nil {
		err = obs.Finish(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hylo-bench: %v\n", err)
		return 1
	}
	return 0
}

// selectExperiments resolves -exp, "all" or a comma list of registry ids,
// checking every id before anything runs.
func selectExperiments(spec string) ([]bench.Experiment, error) {
	if spec == "all" {
		return bench.Registry(), nil
	}
	var exps []bench.Experiment
	for _, id := range strings.Split(spec, ",") {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q; use -list", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

func writeCSV(dir string, t *bench.Table) error {
	return cliutil.WriteCSV(filepath.Join(dir, t.ID+".csv"), t.Headers, t.Rows)
}
