package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if got := h.Count(); got != 0 {
		t.Errorf("Count() = %d, want 0", got)
	}
	if got := h.Mean(); got != 0 {
		t.Errorf("Mean() = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) = %v, want 0", got)
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		h.Observe(d * time.Millisecond)
	}
	if got, want := h.Count(), uint64(5); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
	if got, want := h.Mean(), 30*time.Millisecond; got != want {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	if got, want := h.Min(), 10*time.Millisecond; got != want {
		t.Errorf("Min() = %v, want %v", got, want)
	}
	if got, want := h.Max(), 50*time.Millisecond; got != want {
		t.Errorf("Max() = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0.5), 30*time.Millisecond; got != want {
		t.Errorf("Quantile(0.5) = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0), 10*time.Millisecond; got != want {
		t.Errorf("Quantile(0) = %v, want %v", got, want)
	}
	if got, want := h.Quantile(1), 50*time.Millisecond; got != want {
		t.Errorf("Quantile(1) = %v, want %v", got, want)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(100 * time.Millisecond)
	if got, want := h.Quantile(0.5), 50*time.Millisecond; got != want {
		t.Errorf("Quantile(0.5) = %v, want %v", got, want)
	}
	if got, want := h.Quantile(0.25), 25*time.Millisecond; got != want {
		t.Errorf("Quantile(0.25) = %v, want %v", got, want)
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	var h Histogram
	for i := 0; i < 3*maxSamples; i++ {
		h.Observe(time.Duration(i))
	}
	if got, want := h.Count(), uint64(3*maxSamples); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
	h.mu.Lock()
	n := len(h.samples)
	h.mu.Unlock()
	if n > maxSamples {
		t.Errorf("len(samples) = %d, want <= %d", n, maxSamples)
	}
	// Max must be exact even though samples are downsampled.
	if got, want := h.Max(), time.Duration(3*maxSamples-1); got != want {
		t.Errorf("Max() = %v, want %v", got, want)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Errorf("after Reset: %+v, want all zeros", h.Snapshot())
	}
}

// Snapshot sorts the reservoir once and reads four quantiles off it; each
// must be the value Quantile itself interpolates, at every reservoir size
// where the interpolation changes shape (empty, one sample, between two,
// an exact index, a full and an overwritten reservoir).
func TestHistogramSnapshotMatchesQuantile(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 101, 1000, maxSamples, maxSamples + 500} {
		var h Histogram
		for i := 0; i < n; i++ {
			h.Observe(time.Duration((i*7919)%1013) * time.Microsecond)
		}
		s := h.Snapshot()
		want := Snapshot{
			Count: h.Count(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
		}
		if s != want {
			t.Errorf("n=%d: Snapshot() = %+v, want %+v", n, s, want)
		}
	}
}

func TestHistogramSnapshotAllocs(t *testing.T) {
	var h Histogram
	for i := 0; i < maxSamples; i++ {
		h.Observe(time.Duration(i))
	}
	if allocs := testing.AllocsPerRun(20, func() { h.Snapshot() }); allocs > 1 {
		t.Errorf("Snapshot() = %.0f allocs, want <= 1 (one copy of the reservoir)", allocs)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), uint64(8000); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: quantiles are monotonically non-decreasing in q, and bounded
	// by min and max, for any sample set.
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		prev := h.Quantile(0)
		if prev < h.Min() {
			return false
		}
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return prev <= h.Max()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestMeterRate(t *testing.T) {
	m := NewMeter()
	base := time.Unix(1000, 0)
	tick := 0
	m.SetClock(func() time.Time {
		t := base.Add(time.Duration(tick) * 100 * time.Millisecond)
		tick++
		return t
	})
	for i := 0; i < 11; i++ {
		m.Mark()
	}
	// 11 marks spaced 100ms apart => 10 intervals over 1s => 10/s.
	if got := m.Rate(); got < 9.99 || got > 10.01 {
		t.Errorf("Rate() = %f, want 10", got)
	}
	if got, want := m.Count(), uint64(11); got != want {
		t.Errorf("Count() = %d, want %d", got, want)
	}
}

func TestMeterZeroAndSingle(t *testing.T) {
	var m Meter
	if got := m.Rate(); got != 0 {
		t.Errorf("empty Rate() = %f, want 0", got)
	}
	m.Mark()
	if got := m.Rate(); got != 0 {
		t.Errorf("single-mark Rate() = %f, want 0", got)
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.MarkN(5)
	m.Reset()
	if got := m.Count(); got != 0 {
		t.Errorf("Count() after Reset = %d, want 0", got)
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("stage.pose")
	h2 := r.Histogram("stage.pose")
	if h1 != h2 {
		t.Error("Histogram returned distinct instances for the same name")
	}
	m1 := r.Meter("fps")
	m2 := r.Meter("fps")
	if m1 != m2 {
		t.Error("Meter returned distinct instances for the same name")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Histogram("b")
	r.Histogram("a")
	r.Meter("z")
	r.Meter("y")
	hn := r.HistogramNames()
	if len(hn) != 2 || hn[0] != "a" || hn[1] != "b" {
		t.Errorf("HistogramNames() = %v, want [a b]", hn)
	}
	mn := r.MeterNames()
	if len(mn) != 2 || mn[0] != "y" || mn[1] != "z" {
		t.Errorf("MeterNames() = %v, want [y z]", mn)
	}
}

func TestRegistryReport(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").Observe(time.Millisecond)
	r.Meter("fps").MarkN(3)
	rep := r.Report()
	if rep == "" {
		t.Error("Report() returned empty string")
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").Observe(time.Millisecond)
	r.Meter("fps").Mark()
	r.Reset()
	if got := r.Histogram("lat").Count(); got != 0 {
		t.Errorf("histogram count after Reset = %d, want 0", got)
	}
	if got := r.Meter("fps").Count(); got != 0 {
		t.Errorf("meter count after Reset = %d, want 0", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Histogram("h").Observe(time.Duration(i))
				r.Meter("m").Mark()
			}
		}()
	}
	wg.Wait()
	if got, want := r.Histogram("h").Count(), uint64(1600); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
}

func TestMeterRateWindow(t *testing.T) {
	m := NewMeter()
	base := time.Unix(1000, 0)
	now := base
	m.SetClock(func() time.Time { return now })

	// 10 marks in the first second, then a 9-second silent gap.
	for i := 0; i < 10; i++ {
		now = base.Add(time.Duration(i) * 100 * time.Millisecond)
		m.Mark()
	}
	now = base.Add(10 * time.Second)

	// First-to-last rate is inflated by the clustering (10 marks over
	// 0.9s); the trailing 10s window sees 10 marks over 10s.
	if got := m.RateWindow(10 * time.Second); got < 0.99 || got > 1.01 {
		t.Errorf("RateWindow(10s) = %f, want 1", got)
	}
	// A trailing window covering only the silent tail sees zero.
	if got := m.RateWindow(5 * time.Second); got != 0 {
		t.Errorf("RateWindow(5s) = %f, want 0", got)
	}
	// A window longer than the meter's lifetime clamps to the lifetime:
	// 10 events over 10s, not over 60s.
	if got := m.RateWindow(time.Minute); got < 0.99 || got > 1.01 {
		t.Errorf("RateWindow(1m) = %f, want 1", got)
	}
	if got := m.RateWindow(0); got != 0 {
		t.Errorf("RateWindow(0) = %f, want 0", got)
	}
}

func TestMeterRateWindowRingEviction(t *testing.T) {
	m := NewMeter()
	base := time.Unix(1000, 0)
	now := base
	m.SetClock(func() time.Time { return now })

	// Overflow the ring: 2*meterRingSize marks at 1ms spacing. Only the
	// newest meterRingSize records survive, so the window clamps to the
	// span the ring still covers and the rate stays ~1000/s instead of
	// halving.
	total := 2 * meterRingSize
	for i := 0; i < total; i++ {
		now = base.Add(time.Duration(i) * time.Millisecond)
		m.Mark()
	}
	if got := m.RateWindow(time.Hour); got < 900 || got > 1100 {
		t.Errorf("RateWindow after eviction = %f, want ~1000", got)
	}
}

// truncatingObserver replays the failure mode this suite regression-guards
// against: a sampler that fills its buffer and then drops every later
// observation on the floor. Long-run quantiles from such a buffer are
// frozen at the warm-up distribution — exactly what a load harness must
// not report. durationObserver abstracts Observe so checkBimodalUnbiased
// exercises the real Histogram and this reference impl identically.
type durationObserver interface {
	Observe(time.Duration)
}

type truncatingObserver struct {
	samples []time.Duration
}

func (o *truncatingObserver) Observe(d time.Duration) {
	if len(o.samples) >= maxSamples {
		return // the pre-reservoir behavior: full means deaf
	}
	o.samples = append(o.samples, d)
}

func (o *truncatingObserver) quantile(q float64) time.Duration {
	h := Histogram{samples: o.samples}
	return h.Quantile(q)
}

// feedBimodal drives obs with a stream whose first maxSamples observations
// sit at earlyMode and whose following lateN sit at lateMode — the shape
// of a benchmark with a fast warm-up and a slower steady state.
func feedBimodal(obs durationObserver, earlyMode, lateMode time.Duration, lateN int) {
	for i := 0; i < maxSamples; i++ {
		obs.Observe(earlyMode)
	}
	for i := 0; i < lateN; i++ {
		obs.Observe(lateMode)
	}
}

// TestHistogramBimodalUnbiased is the reservoir-bias regression test: once
// the late mode dominates the stream ~12:1, the median and p99 of the
// retained samples must sit on the late mode, and the late mode's retained
// share must be near its true share of the stream. A histogram that stops
// sampling when full (truncatingObserver, the old failure mode) reports
// warm-up-only quantiles and fails these assertions — see
// TestTruncatingSamplerIsBiased, which proves the check has teeth.
func TestHistogramBimodalUnbiased(t *testing.T) {
	const early, late = 1 * time.Millisecond, 10 * time.Millisecond
	const lateN = 100000

	var h Histogram
	h.Seed(42)
	feedBimodal(&h, early, late, lateN)

	if got := h.Quantile(0.5); got != late {
		t.Errorf("p50 = %v, want the late mode %v (quantiles biased toward warm-up)", got, late)
	}
	if got := h.Quantile(0.99); got != late {
		t.Errorf("p99 = %v, want the late mode %v", got, late)
	}
	lateFrac := sampleShare(h.Samples(), late)
	trueFrac := float64(lateN) / float64(lateN+maxSamples)
	if lateFrac < trueFrac-0.05 || lateFrac > trueFrac+0.05 {
		t.Errorf("late-mode share of reservoir = %.3f, want %.3f ± 0.05", lateFrac, trueFrac)
	}
}

// TestTruncatingSamplerIsBiased locks in that the bimodal check actually
// distinguishes the two behaviors: the fill-then-drop sampler must FAIL
// the assertions the real Histogram passes. If someone reverts Observe to
// truncation, TestHistogramBimodalUnbiased goes red; if someone weakens
// the check until truncation passes it, this test goes red instead.
func TestTruncatingSamplerIsBiased(t *testing.T) {
	const early, late = 1 * time.Millisecond, 10 * time.Millisecond
	var o truncatingObserver
	feedBimodal(&o, early, late, 100000)

	if got := o.quantile(0.5); got != early {
		t.Fatalf("reference truncating sampler p50 = %v, want warm-up mode %v — the regression fixture no longer models the old bug", got, early)
	}
	if share := sampleShare(o.samples, late); share != 0 {
		t.Fatalf("reference truncating sampler retained %.3f late-mode share, want 0", share)
	}
}

func sampleShare(samples []time.Duration, mode time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range samples {
		if s == mode {
			n++
		}
	}
	return float64(n) / float64(len(samples))
}

// TestHistogramSeedDeterminism: same seed and observation sequence ⇒
// byte-identical reservoirs; the default (unseeded) state is itself fixed.
func TestHistogramSeedDeterminism(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		var h Histogram
		if seed != 0 {
			h.Seed(seed)
		}
		for i := 0; i < 4*maxSamples; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
		return h.Samples()
	}
	for _, seed := range []uint64{0, 7, 7} {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: reservoir sizes differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: reservoirs diverge at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}

func TestHistogramP999(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P999 < s.P99 || s.P999 > s.Max {
		t.Errorf("p999 = %v, want within [p99=%v, max=%v]", s.P999, s.P99, s.Max)
	}
	if s.P999 < 998*time.Millisecond {
		t.Errorf("p999 = %v, want ≥ 998ms on a 1..1000ms ramp", s.P999)
	}
}

// TestHistogramSamplesMerge documents the cross-histogram merge idiom the
// vpflood harness uses for fleet-wide percentiles.
func TestHistogramSamplesMerge(t *testing.T) {
	var a, b, merged Histogram
	for i := 0; i < 100; i++ {
		a.Observe(1 * time.Millisecond)
		b.Observe(9 * time.Millisecond)
	}
	for _, src := range []*Histogram{&a, &b} {
		for _, s := range src.Samples() {
			merged.Observe(s)
		}
	}
	if got := merged.Count(); got != 200 {
		t.Fatalf("merged count = %d, want 200", got)
	}
	if p50 := merged.Quantile(0.5); p50 < 1*time.Millisecond || p50 > 9*time.Millisecond {
		t.Errorf("merged p50 = %v, want between the two modes", p50)
	}
}
