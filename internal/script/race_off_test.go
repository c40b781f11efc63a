//go:build !race

package script

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
