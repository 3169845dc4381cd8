package bench

// methodSet is the sketch-off method table bench_test.go trains with.
func methodSet(which []string) []method { return RunConfig{}.methods(which) }
