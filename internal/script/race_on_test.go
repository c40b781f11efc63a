//go:build race

package script

// raceEnabled reports that the race detector is active: allocation counts
// are skewed by instrumentation, so exact-count assertions are skipped.
const raceEnabled = true
