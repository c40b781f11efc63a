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
}

// Mark records one event occurrence.
func (m *Meter) Mark() { m.MarkN(1) }

// MarkN records n simultaneous event occurrences.
func (m *Meter) MarkN(n uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := time.Now()
	if m.count == 0 {
		m.first = t
	}
	m.count += n
	m.last = t
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

// Reset discards all recorded events.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.count = 0
	m.first = time.Time{}
	m.last = time.Time{}
}
