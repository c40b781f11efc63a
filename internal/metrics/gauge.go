package metrics

import "sync/atomic"

// Gauge is a point-in-time level — queue depths, busy workers, pool
// sizes. Unlike a Meter it has no rate semantics: writers Set the current
// value and it holds the latest level. It is safe for
// concurrent use and cheap enough for per-request updates on the service
// hot path.
//
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Reset returns the gauge to zero.
func (g *Gauge) Reset() { g.v.Store(0) }
