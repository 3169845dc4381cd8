//go:build race

package nn

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately drops a fraction of sync.Pool puts — so a
// steady-state zero-allocation assertion only holds without it.
const raceEnabled = true
