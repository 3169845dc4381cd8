//go:build race

package sched

// raceEnabled reports whether this test binary was built with the race
// detector, which allocates on goroutine starts and synchronization — so a
// per-Run allocation bound only holds without it.
const raceEnabled = true
