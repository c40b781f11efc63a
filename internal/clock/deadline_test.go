package clock

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

const shortTimeout = 5 * time.Millisecond

// expire waits for ctx to end, failing if it outlives the timeout by far.
func expire(t *testing.T, ctx context.Context) {
	t.Helper()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("the deadline never fired")
	}
}

func TestDeadlineFires(t *testing.T) {
	d := NewDeadline(context.Background(), shortTimeout)
	defer d.Close()
	start := time.Now()
	ctx := d.Start()
	at, ok := ctx.Deadline()
	if !ok || at.Before(start.Add(shortTimeout)) || at.After(time.Now().Add(shortTimeout)) {
		t.Errorf("Deadline() = %v, %v; want start + %v", at, ok, shortTimeout)
	}
	expire(t, ctx)
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err() after the deadline = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) < shortTimeout {
		t.Errorf("the deadline fired after %v, before its %v", time.Since(start), shortTimeout)
	}
	d.Stop()
}

// TestDeadlineRestartsAfterFire: the call after an expired one gets a live
// context with its own deadline.
func TestDeadlineRestartsAfterFire(t *testing.T) {
	d := NewDeadline(context.Background(), shortTimeout)
	defer d.Close()
	old := d.Start()
	expire(t, old)
	d.Stop()
	oldAt, _ := old.Deadline()

	ctx := d.Start()
	defer d.Stop()
	if err := ctx.Err(); err != nil {
		t.Fatalf("Start after an expiry gave a dead context: %v", err)
	}
	if at, _ := ctx.Deadline(); !at.After(oldAt) {
		t.Errorf("restarted deadline %v is not after the expired one %v", at, oldAt)
	}
	if !errors.Is(old.Err(), context.DeadlineExceeded) {
		t.Errorf("the expired context came back to life: %v", old.Err())
	}
	expire(t, ctx)
}

func TestDeadlineStopKeepsContextLive(t *testing.T) {
	d := NewDeadline(context.Background(), shortTimeout)
	defer d.Close()
	for range 3 {
		ctx := d.Start()
		d.Stop()
		time.Sleep(2 * shortTimeout)
		if err := ctx.Err(); err != nil {
			t.Fatalf("a stopped deadline fired: %v", err)
		}
	}
}

func TestDeadlineParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	d := NewDeadline(parent, time.Hour)
	defer d.Close()
	ctx := d.Start()
	cancel()
	expire(t, ctx)
	if err := ctx.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() after the parent's cancel = %v, want context.Canceled", err)
	}
	d.Stop()
	if err := d.Start().Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Start under a cancelled parent = %v, want context.Canceled", err)
	}
	d.Stop()
}

// TestDeadlineChildCancelled: a context derived from the call's is ended
// by the expiry, and deriving it starts no goroutine.
func TestDeadlineChildCancelled(t *testing.T) {
	d := NewDeadline(context.Background(), shortTimeout)
	defer d.Close()
	before := runtime.NumGoroutine()
	child, cancel := context.WithTimeout(d.Start(), time.Hour)
	defer cancel()
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("deriving a child moved the goroutine count %d -> %d", before, after)
	}
	expire(t, child)
	if context.Cause(child) != context.DeadlineExceeded {
		t.Errorf("child's cause = %v, want context.DeadlineExceeded", context.Cause(child))
	}
	d.Stop()
}

// TestDeadlineFireStopRace stops calls right as their deadline fires, so
// the timer's cancel runs beside Stop and the next Start: the next call's
// context must never end before its own deadline, as it would if the old
// timer reached it.
func TestDeadlineFireStopRace(t *testing.T) {
	const timeout = 200 * time.Microsecond
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewDeadline(context.Background(), timeout)
			defer d.Close()
			for range 200 {
				ctx := d.Start()
				time.Sleep(timeout)
				d.Stop()
				_ = ctx.Err()
				next := d.Start()
				at, _ := next.Deadline()
				if next.Err() != nil && time.Now().Before(at) {
					t.Errorf("a fresh call's context ended %v before its deadline", time.Until(at))
				}
				d.Stop()
			}
		}()
	}
	wg.Wait()
}
