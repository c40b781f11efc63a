package services

import (
	"errors"
	"sync"
	"time"
)

// Circuit-breaker defaults. Tuned for the module hot path: a service that
// fails five frames in a row is almost certainly down, and half a second
// is long enough for the supervisor's restart to land before the next
// probe.
const (
	// DefaultBreakerThreshold is how many consecutive failures open the
	// breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker waits before
	// letting a half-open probe through.
	DefaultBreakerCooldown = 500 * time.Millisecond
)

// ErrBreakerOpen is returned (wrapped) when a call is shed because the
// service's circuit is open — the caller failed fast instead of burning
// its RPC retry budget against a dead service.
var ErrBreakerOpen = errors.New("services: circuit open")

// BreakerState is one of the classic three circuit states.
type BreakerState int

// Breaker states. Enums start at one.
const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota + 1
	// BreakerOpen sheds every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe call through; its outcome
	// closes or re-opens the circuit.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-service circuit breaker: closed -> open after a run of
// consecutive failures, open -> half-open after a cooldown, half-open ->
// closed on a successful probe (or back to open on a failed one). It is
// safe for concurrent use.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool
	onChange  func(BreakerState)
}

// NewBreaker creates a closed breaker; non-positive arguments select the
// defaults.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{state: BreakerClosed, threshold: threshold, cooldown: cooldown}
}

// OnStateChange installs a callback fired (outside the breaker lock is not
// guaranteed — keep it cheap) whenever the state transitions. Used by the
// device runtime to mark breaker metrics.
func (b *Breaker) OnStateChange(fn func(BreakerState)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onChange = fn
}

// setState transitions and notifies. Caller holds b.mu.
func (b *Breaker) setState(s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if b.onChange != nil {
		b.onChange(s)
	}
}

// Allow reports whether a call may proceed right now. An open breaker
// whose cooldown has elapsed transitions to half-open and admits exactly
// one probe; every other caller is shed until the probe resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// Cancel releases an admitted call slot without recording an outcome —
// for calls that failed locally (bad arguments, encode errors) before the
// service was ever exercised. Without it, a half-open probe that dies
// client-side would wedge the breaker in its probing state.
func (b *Breaker) Cancel() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// Record reports a call outcome. Success closes the circuit and resets the
// failure run; failure extends the run, opening the circuit at the
// threshold — or immediately when it was the half-open probe that failed.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if success {
		b.failures = 0
		b.setState(BreakerClosed)
		return
	}
	b.failures++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.failures >= b.threshold) {
		b.openedAt = time.Now()
		b.setState(BreakerOpen)
	}
}
