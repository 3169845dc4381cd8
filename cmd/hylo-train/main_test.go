package main

// The Spec validation, workload-builder, preconditioner-factory, and
// fault-spec tests live in internal/cliutil with the helpers themselves —
// hylo-train, hylo-bench, and hylo-serve share one copy of those rules.

import (
	"encoding/csv"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/train"
)

// parse binds a fresh hylo-train flag set and parses args into it.
func parse(t *testing.T, args ...string) (*options, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("hylo-train", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o, fs
}

// TestFlagDefaultsAreDefaultSpec: a flagless hylo-train describes
// cliutil.DefaultSpec, the run an empty job spec describes too.
func TestFlagDefaultsAreDefaultSpec(t *testing.T) {
	o, _ := parse(t)
	if o.spec != cliutil.DefaultSpec() {
		t.Fatalf("flag defaults = %+v; want DefaultSpec %+v", o.spec, cliutil.DefaultSpec())
	}
	if _, _, err := o.build(); err != nil {
		t.Fatalf("default command line rejected: %v", err)
	}
}

// TestBuildRejects: the flag values that used to pass validation and fail
// (or silently change meaning) later are usage errors naming the flag.
func TestBuildRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-rank-frac", "NaN"}, {"-cond-limit", "inf"}, {"-cond-limit", "1"},
		{"-cond-limit", "NaN"}, {"-classes", "0"}, {"-lr", "-1"}, {"-momentum", "1"},
		{"-eta", "NaN"}, {"-weight-decay", "-0.1"}, {"-decay-at", "x"},
		{"-fault-inject", "panic:1@4"}, {"-resume"}, {"-listen", ":0"},
		{"-fault-inject", "panic:5@3", "-workers", "2", "-checkpoint-dir", "d"},
	} {
		o, _ := parse(t, args...)
		_, _, err := o.build()
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: err = %v; want a usage error naming %s", args, err, args[0])
		}
	}
}

// TestConfigDigest: the TCP config digest covers every flag that shapes
// the replicas' arithmetic and none that only say where one process
// listens, stores or reports.
func TestConfigDigest(t *testing.T) {
	_, fs := parse(t)
	base := configDigest(fs)
	for _, args := range [][]string{
		{"-clip", "1"}, {"-kid-sketch", "srht"}, {"-kid-oversample", "16"}, {"-id-tol", "0"},
		{"-cond-limit", "1e10"}, {"-augment"}, {"-patience", "3"}, {"-lr", "0.1"},
		{"-model", "mlp"}, {"-workers", "4"}, {"-net-topology", "tree"},
		{"-checkpoint-every", "2"}, {"-decay-at", "5"},
	} {
		if _, fs := parse(t, args...); configDigest(fs) == base {
			t.Errorf("%v: digest unchanged", args)
		}
	}
	local := []string{"-listen", ":7077", "-join", "a:1,b:2", "-net-ranks", "2",
		"-net-fault", "drop:0.1", "-checkpoint-dir", "ck", "-resume", "-barrier-timeout", "5s",
		"-fault-inject", "panic:1@4", "-profiling", "-grad-norm",
		"-csv", "r.csv", "-trace", "t.json", "-metrics", "m.prom", "-events", "e.jsonl",
		"-telemetry-summary", "-numerics-report"}
	if _, fs := parse(t, local...); configDigest(fs) != base {
		t.Error("process-local flags changed the digest")
	}
	// A flag spelled differently but parsed to the same value agrees.
	if _, fs := parse(t, "-lr", "3e-2"); configDigest(fs) != base {
		t.Error("-lr 3e-2 and the default 0.03 disagree")
	}
}

func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	res := train.Result{Stats: []train.EpochStat{
		{Epoch: 0, TrainLoss: 1.5, Metric: 0.25, Elapsed: 1500 * time.Millisecond},
		{Epoch: 1, TrainLoss: 0.75, Metric: 0.5, Elapsed: 3 * time.Second},
	}}
	if err := writeCSV(path, res); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d; want header + 2", len(rows))
	}
	if rows[0][0] != "epoch" || rows[1][0] != "0" || rows[2][3] != "3.000" {
		t.Fatalf("unexpected csv contents: %v", rows)
	}
}
