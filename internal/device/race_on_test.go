//go:build race

package device

// raceEnabled reports that the race detector is active: allocation and
// wall-clock bounds are logged instead of enforced, since instrumentation
// inflates both.
const raceEnabled = true
