package clock

import (
	"context"
	"sync"
	"testing"
	"time"
)

// A pooled timer must come back clean whatever ended its last wait. The
// stale-tick case is a timer that fired while its wait was being ended some
// other way: a tick left in its channel would end the next wait on it at
// once. `make alloc` runs these under both timer-channel semantics (the
// go.mod default, synchronous since go 1.23, and GODEBUG=asynctimerchan=1).

// waitsFully fails unless wait takes at least d.
func waitsFully(t *testing.T, what string, d time.Duration, wait func()) {
	t.Helper()
	start := time.Now()
	wait()
	if got := time.Since(start); got < d {
		t.Fatalf("%s on a recycled timer returned after %v, want >= %v (a stale tick)", what, got, d)
	}
}

func TestReuseAfterCancelledSleep(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for range 50 {
		// A 1 ns timer races the cancelled context: either way it is pooled.
		Sleep(cancelled, time.Nanosecond)
		waitsFully(t, "Sleep", time.Millisecond, func() {
			if !Sleep(context.Background(), time.Millisecond) {
				t.Fatal("Sleep without a deadline was cut short")
			}
		})
	}
}

func TestReuseAfterWaitEndedByChannel(t *testing.T) {
	ready, never := make(chan struct{}), make(chan struct{})
	close(ready)
	for range 50 {
		Wait(ready, time.Nanosecond)
		waitsFully(t, "Wait", time.Millisecond, func() { Wait(never, time.Millisecond) })
	}
}

// TestReuseAfterUnreceivedTick releases a timer whose tick has certainly
// come due and was never received, the case a non-blocking drain exists
// for.
func TestReuseAfterUnreceivedTick(t *testing.T) {
	for range 20 {
		tm := Timer(time.Nanosecond)
		time.Sleep(200 * time.Microsecond)
		Release(tm, false)
		waitsFully(t, "Sleep", time.Millisecond, func() { Sleep(context.Background(), time.Millisecond) })
	}
}

func TestSleepCancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if Sleep(ctx, time.Minute) {
		t.Fatal("Sleep outlived its context")
	}
}

// TestConcurrentWaits shares the pool among goroutines, each checking that
// every wait it makes lasts its whole duration.
func TestConcurrentWaits(t *testing.T) {
	var wg sync.WaitGroup
	never := make(chan struct{})
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				d := time.Duration(50+g+i) * time.Microsecond
				start := time.Now()
				if g%2 == 0 {
					Sleep(context.Background(), d)
				} else {
					Wait(never, d)
				}
				if got := time.Since(start); got < d {
					t.Errorf("a %v wait returned after %v", d, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
