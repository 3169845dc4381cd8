//go:build race

package repro

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately drops a fraction of sync.Pool puts — so an
// exact steady-state allocation count only holds without it.
const raceEnabled = true
