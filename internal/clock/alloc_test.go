//go:build !race

package clock

import (
	"context"
	"testing"
	"time"
)

// TestWaitAllocs pins a warm Sleep and Wait at zero allocations: the timer
// comes from the pool (the race detector drops pooled items at random, so
// the pin holds without it only).
func TestWaitAllocs(t *testing.T) {
	ctx, never := context.Background(), make(chan struct{})
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for name, wait := range map[string]func(){
		"Sleep":                  func() { Sleep(ctx, time.Microsecond) },
		"Sleep, cancelled":       func() { Sleep(cancelled, time.Hour) },
		"Wait, timed out":        func() { Wait(never, time.Microsecond) },
		"Wait, ended by channel": func() { Wait(cancelled.Done(), time.Hour) },
	} {
		wait()
		if allocs := testing.AllocsPerRun(20, wait); allocs != 0 {
			t.Errorf("warm %s: %.1f allocs, want 0", name, allocs)
		}
	}
}
