package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents name only what exists: every command they tell a reader
// to run is a main package, every experiment id they cite is registered,
// every HYLO_ environment variable they name is read by the program, every
// artifact EXPERIMENTS.md lists is in the tree, and every alternative of a
// -run pattern in the Makefile or CI names a test of the packages that
// command runs.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	const root = "../.."
	goRun := regexp.MustCompile(`(?:go|\$\(GO\)) run (\./[\w./-]+)`)
	expFlag := regexp.MustCompile(`-exp[ =]([\w,*…-]+)`)
	envName := regexp.MustCompile(`HYLO_[A-Z_]+`)
	read := envReads(t, root)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range goRun.FindAllStringSubmatch(text, -1) {
			if !isMainPackage(t, filepath.Join(root, m[1])) {
				t.Errorf("%s: `go run %s` is not a main package", doc, m[1])
			}
		}
		for _, m := range expFlag.FindAllStringSubmatch(text, -1) {
			for _, id := range strings.Split(m[1], ",") {
				if id != "" && id != "all" && !registered(id) {
					t.Errorf("%s: -exp %s is not in Registry()", doc, id)
				}
			}
		}
		named := map[string]bool{}
		for _, name := range envName.FindAllString(text, -1) {
			if !read[name] && !named[name] {
				t.Errorf("%s: %s is read by no os.Getenv or os.LookupEnv of the module", doc, name)
			}
			named[name] = true
		}
	}

	b, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, artifacts, ok := strings.Cut(string(b), "\n## Artifacts\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no Artifacts section")
	}
	artifacts, _, _ = strings.Cut(artifacts, "\n## ")
	listed := regexp.MustCompile("(?m)^- `([^`]+)`").FindAllStringSubmatch(artifacts, -1)
	if len(listed) == 0 {
		t.Fatal("EXPERIMENTS.md lists no artifacts")
	}
	for _, m := range listed {
		if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
			t.Errorf("EXPERIMENTS.md artifact %s: %v", m[1], err)
		}
	}

	runFlag := regexp.MustCompile(`-run[ =]'([^']*)'`)
	for _, doc := range []string{"Makefile", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.ReplaceAll(string(b), "$$", "$"), "\n") {
			m := runFlag.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			var tests []string
			for _, f := range strings.Fields(line) {
				if strings.HasPrefix(f, "./") {
					tests = append(tests, testFuncs(t, filepath.Join(root, f))...)
				}
			}
			// go test splits a pattern into alternatives at its top-level
			// '|' and each alternative into levels at '/'; the first level
			// names the test function.
			for _, alt := range strings.Split(m[1], "|") {
				top, _, _ := strings.Cut(alt, "/")
				if top == "^$" {
					continue
				}
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", doc, alt, err)
					continue
				}
				found := false
				for _, name := range tests {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("%s: -run alternative %q matches no test in %q", doc, alt, line)
				}
			}
		}
	}
}

// testFuncs returns the names of the Test functions in dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
	var names []string
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// registered reports whether id is an experiment id, or a prefix such as
// "abl-…" or "ext-*" that some experiment id starts with.
func registered(id string) bool {
	prefix := strings.TrimRight(id, "*…")
	wild := prefix != id
	for _, e := range Registry() {
		if e.ID == id || wild && strings.HasPrefix(e.ID, prefix) {
			return true
		}
	}
	return false
}

// envReads returns the variable names that non-test Go files of the module
// at root pass to os.Getenv or os.LookupEnv as a string literal. Nested
// modules and hidden directories (build caches) are skipped.
func envReads(t *testing.T, root string) map[string]bool {
	call := regexp.MustCompile(`os\.(?:Getenv|LookupEnv)\("(\w+)"\)`)
	read := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range call.FindAllSubmatch(b, -1) {
			read[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return read
}

// isMainPackage reports whether dir holds a non-test Go file of package main.
func isMainPackage(t *testing.T, dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		return af.Name.Name == "main"
	}
	return false
}
