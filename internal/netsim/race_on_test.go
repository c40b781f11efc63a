//go:build race

package netsim

// raceEnabled reports that the race detector is active: allocation bounds
// are skewed by instrumentation, so they are logged rather than enforced
// (the hop still runs, so a read of a released body is caught).
const raceEnabled = true
