//go:build race

package core_test

// raceEnabled reports whether the race detector is active: instrumented
// code runs several times slower, so wall-time bounds are scaled.
const raceEnabled = true
