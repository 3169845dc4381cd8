//go:build !race

package kfac

const raceEnabled = false
