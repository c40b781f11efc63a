//go:build !race

package netsim

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
