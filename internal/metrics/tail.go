package metrics

import (
	"slices"
	"time"
)

// RecentTailLen is how many observations a RecentTail keeps: a few seconds
// of a camera-rate lane, long enough to hold a p99 and short enough that
// start-up frames leave it.
const RecentTailLen = 64

// RecentTail is the tail of the last RecentTailLen observations made since
// its last Restart: the latency the system as it is now produces, which a
// run-cumulative Histogram never forgets. It has a fixed size, so recording
// and reading it cost the same however long the run has been going. It is
// not safe for concurrent use; its owner guards it with a lock it already
// holds. The zero value is ready to use.
type RecentTail struct {
	ring  [RecentTailLen]time.Duration
	n     uint64
	since time.Time
}

// Observe records d for an operation that started at start, unless it
// started before the last Restart: it then describes a system that no
// longer exists.
func (t *RecentTail) Observe(start time.Time, d time.Duration) {
	if start.Before(t.since) {
		return
	}
	t.ring[t.n%RecentTailLen] = d
	t.n++
}

// Restart empties the ring and keeps out every later observation of an
// operation that started before at.
func (t *RecentTail) Restart(at time.Time) {
	t.n = 0
	t.since = at
}

// P99 is the p99 of the retained observations, interpolated as
// Histogram.Quantile does (fewer than RecentTailLen while fewer exist, zero
// before the first). The receiver is a copy, sorted in place on the stack:
// an owner copies the ring under its lock and sorts outside it.
func (t RecentTail) P99() time.Duration {
	n := min(t.n, RecentTailLen)
	slices.Sort(t.ring[:n])
	return QuantileOf(t.ring[:n], 0.99)
}
