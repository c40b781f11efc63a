// Package metrics provides the measurement primitives used throughout
// VideoPipe: latency histograms with percentile queries, event-rate meters
// for frame-per-second accounting, and named per-stage timing registries.
//
// All types are safe for concurrent use and have useful zero values where
// practical; constructors are provided for types that need configuration.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// maxSamples bounds the memory used by a Histogram. Once full, new samples
// replace pseudo-randomly chosen old ones (seeded reservoir sampling,
// Algorithm R) so the distribution stays representative over long runs:
// after n observations every sample was retained with probability
// maxSamples/n, so a long run's quantiles are never biased toward its
// warm-up samples the way a fill-then-drop buffer's would be. The bias
// regression test in metrics_test.go pins this contract against a
// bimodal stream.
const maxSamples = 8192

// defaultReservoirSeed is the xorshift state a histogram starts from when
// Seed was never called. Any odd constant works; it is fixed so that two
// histograms fed the same observation sequence retain byte-identical
// reservoirs — the determinism the vpflood harness's reproducibility
// tests rely on.
const defaultReservoirSeed = 0x9e3779b97f4a7c15

// Histogram records duration samples and answers distribution queries.
// The zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	// rng is a tiny xorshift64 state used for reservoir replacement. It is
	// seeded deterministically (defaultReservoirSeed, or Seed's value),
	// keeping the type dependency-free and every run byte-reproducible.
	rng uint64
}

// Seed resets the reservoir's replacement RNG. Calling it (before or
// between observations) makes the retained sample set a pure function of
// the seed and the observation sequence; histograms that are never seeded
// use a fixed default state and are equally deterministic. A zero seed is
// mapped to the default so the xorshift state never sticks at zero.
func (h *Histogram) Seed(seed uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seed == 0 {
		seed = defaultReservoirSeed
	}
	h.rng = seed
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()

	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < maxSamples {
		h.samples = append(h.samples, d)
		return
	}
	// Reservoir replacement: keep each sample with probability maxSamples/count.
	if h.rng == 0 {
		h.rng = defaultReservoirSeed
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if idx := h.rng % h.count; idx < maxSamples {
		h.samples[idx] = d
	}
}

// Count reports the number of observed samples.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean reports the arithmetic mean of all observed samples, or zero when no
// samples have been recorded.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(int64(h.sum) / int64(h.count))
}

// Min reports the smallest observed sample, or zero when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max reports the largest observed sample, or zero when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile reports the q-quantile (0 ≤ q ≤ 1) of the retained samples.
// It returns zero when no samples have been recorded.
func (h *Histogram) Quantile(q float64) time.Duration {
	sorted := h.Samples()
	slices.Sort(sorted)
	return QuantileOf(sorted, q)
}

// QuantileOf reports the q-quantile (0 ≤ q ≤ 1) of an ascending sample set,
// interpolating linearly between neighbours; zero for an empty set.
func QuantileOf(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// Samples returns a copy of the retained reservoir. Consumers that need
// quantiles across several histograms (the vpflood harness merging
// per-pipeline latency distributions) re-observe these into a fresh
// histogram; the merge is approximate, weighted by each source's retained
// count.
func (h *Histogram) Samples() []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]time.Duration, len(h.samples))
	copy(out, h.samples)
	return out
}

// Snapshot captures the histogram's summary statistics at a point in time.
type Snapshot struct {
	Count uint64
	Mean  time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// Snapshot returns a consistent summary of the histogram: the counters and
// the reservoir are read under one lock, and the four quantiles share one
// copy and one sort of it.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	s := Snapshot{Count: h.count, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = time.Duration(int64(h.sum) / int64(h.count))
	}
	sorted := make([]time.Duration, len(h.samples))
	copy(sorted, h.samples)
	h.mu.Unlock()
	slices.Sort(sorted)
	s.P50 = QuantileOf(sorted, 0.50)
	s.P95 = QuantileOf(sorted, 0.95)
	s.P99 = QuantileOf(sorted, 0.99)
	s.P999 = QuantileOf(sorted, 0.999)
	return s
}

// String renders the snapshot in a compact, human-readable form.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v min=%v max=%v",
		s.Count, s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
		s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
		s.P999.Round(time.Microsecond),
		s.Min.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// Reset discards all recorded samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
}
