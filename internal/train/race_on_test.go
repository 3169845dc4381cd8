//go:build race

package train

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately drops a fraction of sync.Pool puts — so
// the matrix pools miss at random and bytes-allocated assertions are
// meaningless.
const raceEnabled = true
