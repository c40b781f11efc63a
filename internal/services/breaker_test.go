package services

import (
	"testing"
	"time"
)

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b := NewBreaker(3, time.Hour)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker shed call %d", i)
		}
		b.Record(false)
	}
	if b.state != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", b.state)
	}
	if !b.Allow() {
		t.Fatal("closed breaker shed the third call")
	}
	b.Record(false)
	if b.state != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.state)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(3, time.Hour)
	b.Record(false)
	b.Record(false)
	b.Record(true) // interleaved success: the run is not consecutive
	b.Record(false)
	b.Record(false)
	if b.state != BreakerClosed {
		t.Fatalf("state = %v, want closed (failures were not consecutive)", b.state)
	}
}

func TestBreakerHalfOpenProbeSuccessCloses(t *testing.T) {
	b := NewBreaker(1, 20*time.Millisecond)
	b.Record(false)
	if b.state != BreakerOpen {
		t.Fatalf("state = %v, want open", b.state)
	}
	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe was shed")
	}
	if b.state != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.state)
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Record(true)
	if b.state != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.state)
	}
	if !b.Allow() {
		t.Fatal("closed breaker shed a call after recovery")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := NewBreaker(1, 20*time.Millisecond)
	b.Record(false)
	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe was shed")
	}
	b.Record(false)
	if b.state != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.state)
	}
	// Re-opened: cooldown restarts, calls shed again.
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call immediately")
	}
	// And a later probe can still recover it.
	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second cooldown elapsed but probe was shed")
	}
	b.Record(true)
	if b.state != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", b.state)
	}
}

func TestBreakerStateChangeNotifications(t *testing.T) {
	b := NewBreaker(1, 10*time.Millisecond)
	var seen []BreakerState
	b.OnStateChange(func(s BreakerState) { seen = append(seen, s) })
	b.Record(false) // closed -> open
	time.Sleep(20 * time.Millisecond)
	b.Allow()      // open -> half-open
	b.Record(true) // half-open -> closed
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(seen) != len(want) {
		t.Fatalf("notifications = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("notifications = %v, want %v", seen, want)
		}
	}
}
