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

// TestDeadlineAllocs pins a warm Start/Stop at zero allocations: the
// context, its Done channel and its timer are re-armed, not made.
func TestDeadlineAllocs(t *testing.T) {
	d := NewDeadline(context.Background(), time.Hour)
	defer d.Close()
	call := func() {
		ctx := d.Start()
		select {
		case <-ctx.Done():
			t.Fatal("an hour's deadline ended")
		default:
		}
		d.Stop()
	}
	call()
	if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
		t.Errorf("warm Start/Stop: %.1f allocs, want 0", allocs)
	}
}
