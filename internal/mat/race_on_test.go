//go:build race

package mat

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately drops a fraction of sync.Pool puts — so a
// steady-state allocation bound only holds without it.
const raceEnabled = true
