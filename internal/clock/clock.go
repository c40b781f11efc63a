// Package clock is where the runtime waits on wall time — a simulated
// service's compute, a shaped link's delivery, a reconnect's backoff — on
// timers from one pool, and where a module worker's per-call deadlines
// live (Deadline, re-armed per call), so a steady stream of waits and calls
// allocates none.
package clock

import (
	"context"
	"sync"
	"time"
)

// timers holds timers no tick can still arrive on, so a Reset one starts
// clean under either timer-channel semantics (GODEBUG=asynctimerchan).
var timers sync.Pool

// Timer returns a timer that fires after d; give it back with Release.
func Timer(d time.Duration) *time.Timer {
	if t, _ := timers.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// Release pools t. fired says its tick was received; otherwise t is stopped
// and a tick already sent is drained without blocking (a blocking receive
// after a false Stop deadlocks under synchronous channels). A timer whose
// tick may still be on its way is left to the collector.
func Release(t *time.Timer, fired bool) {
	if !fired && !t.Stop() {
		select {
		case <-t.C:
		default:
			return
		}
	}
	timers.Put(t)
}

// Sleep waits d, or until ctx is done; it reports whether all of d passed.
func Sleep(ctx context.Context, d time.Duration) bool {
	t := Timer(d)
	select {
	case <-t.C:
		Release(t, true)
		return true
	case <-ctx.Done():
		Release(t, false)
		return false
	}
}

// Wait blocks until ch is ready or d passes, and reports whether it
// received from ch.
func Wait(ch <-chan struct{}, d time.Duration) bool {
	t := Timer(d)
	select {
	case <-ch:
		Release(t, false)
		return true
	case <-t.C:
		Release(t, true)
		return false
	}
}
