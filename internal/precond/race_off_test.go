//go:build !race

package precond

const raceEnabled = false
