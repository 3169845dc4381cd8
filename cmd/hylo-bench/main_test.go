package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	tbl := &bench.Table{
		ID:      "demo",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "x"}, {"2", "y"}},
	}
	if err := writeCSV(dir, tbl); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "demo.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != "a" || rows[2][1] != "y" {
		t.Fatalf("csv rows = %v", rows)
	}
}

func TestWriteCSVCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "deeper")
	tbl := &bench.Table{ID: "x", Headers: []string{"h"}, Rows: [][]string{{"v"}}}
	if err := writeCSV(dir, tbl); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.csv")); err != nil {
		t.Fatal(err)
	}
}

// runBench runs the command in-process and returns its exit code, stdout
// and stderr.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSelectedExperimentsPrintInOrder(t *testing.T) {
	code, out, stderr := runBench(t, "-exp", "fig2,table2", "-quick")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	fig2, table2 := strings.Index(out, "== fig2:"), strings.Index(out, "== table2:")
	if fig2 < 0 || table2 < fig2 {
		t.Fatalf("want fig2 then table2, got:\n%s", out)
	}
	if !strings.Contains(out, "(table2 completed in ") {
		t.Fatalf("missing completion line:\n%s", out)
	}
}

func TestReportFlagWritesMarkdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.md")
	if code, _, stderr := runBench(t, "-exp", "fig2,table2", "-quick", "-report", path); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"# HyLo reproduction report", "### fig2", "### table2"} {
		if !strings.Contains(string(md), frag) {
			t.Fatalf("report missing %q:\n%s", frag, md)
		}
	}
}

// An unknown id is a usage error found before anything runs: fig2, listed
// first, must not have printed its table.
func TestUnknownExperimentRunsNothing(t *testing.T) {
	code, out, stderr := runBench(t, "-exp", "fig2,nope", "-quick")
	if code != 2 {
		t.Fatalf("exit %d; want 2", code)
	}
	if !strings.Contains(stderr, `"nope"`) {
		t.Fatalf("stderr %q does not name the unknown id", stderr)
	}
	if out != "" {
		t.Fatalf("ran experiments before rejecting the list:\n%s", out)
	}
}

func TestCSVFlagWritesOneFilePerTable(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := runBench(t, "-exp", "fig2,table2", "-quick", "-csv", dir); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, id := range []string{"fig2", "table2"} {
		if _, err := os.Stat(filepath.Join(dir, id+".csv")); err != nil {
			t.Fatal(err)
		}
	}
}
