package metrics

import (
	"sync"
	"time"
)

// Meter measures the rate of discrete events (frames, calls) per second.
// It records the wall-clock time of the first and most recent Mark along
// with the total count; Rate reports count over elapsed time, which is the
// steady-state rate used for the paper's end-to-end FPS numbers.
//
// The zero value is ready to use.
type Meter struct {
	mu    sync.Mutex
	count uint64
	first time.Time
	last  time.Time
	// ring holds the most recent MarkN records so RateWindow can count
	// events inside a trailing window. Allocated on first Mark.
	ring     []markRecord
	ringHead int // next write slot
	ringLen  int // records currently stored (<= meterRingSize)
	// now allows tests to substitute a fake clock.
	now func() time.Time
}

// markRecord is one MarkN call: its wall-clock time and event count.
type markRecord struct {
	t time.Time
	n uint64
}

// meterRingSize bounds the trailing-mark history kept for RateWindow. At
// 60 fps that covers a ~17 s window of per-frame marks.
const meterRingSize = 1024

// Mark records one event occurrence.
func (m *Meter) Mark() { m.MarkN(1) }

// MarkN records n simultaneous event occurrences.
func (m *Meter) MarkN(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.clock()
	if m.count == 0 {
		m.first = t
	}
	m.count += n
	m.last = t
	if m.ring == nil {
		m.ring = make([]markRecord, meterRingSize)
	}
	m.ring[m.ringHead] = markRecord{t: t, n: n}
	m.ringHead = (m.ringHead + 1) % meterRingSize
	if m.ringLen < meterRingSize {
		m.ringLen++
	}
}

// Count reports the total number of events marked.
func (m *Meter) Count() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// Rate reports events per second between the first and last Mark.
// Fewer than two events yield a rate of zero: a single instantaneous
// event has no measurable rate.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count < 2 {
		return 0
	}
	elapsed := m.last.Sub(m.first).Seconds()
	if elapsed <= 0 {
		return 0
	}
	// count-1 intervals span the elapsed window.
	return float64(m.count-1) / elapsed
}

// RateWindow reports events per second over the trailing window d, ending
// now: the count of events marked within the window divided by the window
// length. Unlike Rate, which spans first-to-last mark, the denominator is
// the fixed window, so short bursts that cluster deliveries do not inflate
// the rate — this is the estimator chaos experiments use to compare
// like-for-like measurement phases.
//
// The window is clamped to the meter's lifetime (time since the first
// mark), and to the span actually covered by the mark ring if more than
// meterRingSize MarkN calls have landed inside d.
func (m *Meter) RateWindow(d time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 || d <= 0 {
		return 0
	}
	now := m.clock()
	cutoff := now.Add(-d)

	// Sum events inside the window and find the oldest retained record.
	var inWindow uint64
	oldest := now
	for i := 0; i < m.ringLen; i++ {
		rec := m.ring[(m.ringHead-1-i+meterRingSize)%meterRingSize]
		if rec.t.Before(oldest) {
			oldest = rec.t
		}
		if !rec.t.Before(cutoff) {
			inWindow += rec.n
		}
	}

	// Effective window start: never before the first mark, and never
	// before the oldest record still in the ring once history has been
	// evicted (otherwise evicted marks would deflate the rate).
	start := cutoff
	if m.first.After(start) {
		start = m.first
	}
	if m.ringLen == meterRingSize && oldest.After(start) {
		start = oldest
	}
	elapsed := now.Sub(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(inWindow) / elapsed
}

// Reset discards all recorded events.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count = 0
	m.first = time.Time{}
	m.last = time.Time{}
	m.ringHead = 0
	m.ringLen = 0
}

func (m *Meter) clock() time.Time {
	if m.now != nil {
		return m.now()
	}
	return time.Now()
}
