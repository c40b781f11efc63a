package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"videopipe/internal/flood"
	"videopipe/internal/frame"
)

func TestMergedScheduleIsSeedDeterministic(t *testing.T) {
	for _, w := range workloads() {
		a, err := mergedSchedule(w, 7, time.Second, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := mergedSchedule(w, 7, time.Second, 2*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two different offer sequences", w.name)
		}
		c, _ := mergedSchedule(w, 8, time.Second, 2*time.Second)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same offer sequence", w.name)
		}
		// A window is offered the same number of frames whatever the seed.
		want := int(w.rate*3+0.5) * w.lanes
		if d := len(a) - want; len(a) != len(c) && w.process == flood.Poisson || d < -w.lanes || d > w.lanes {
			t.Errorf("%s: %d and %d offers for seeds 7 and 8, want about %d", w.name, len(a), len(c), want)
		}
		lanes := map[int]bool{}
		for i, ev := range a {
			lanes[ev.lane] = true
			if ev.at < 0 || ev.at >= 3*time.Second {
				t.Fatalf("%s: offer %d at %v is outside the run", w.name, i, ev.at)
			}
			if i > 0 && ev.at < a[i-1].at {
				t.Fatalf("%s: offer %d is scheduled before offer %d", w.name, i, i-1)
			}
		}
		if len(lanes) != w.lanes {
			t.Errorf("%s: schedule covers %d lanes, want %d", w.name, len(lanes), w.lanes)
		}
	}
}

func TestQuantileAndWindowSlicing(t *testing.T) {
	ds := func(ms ...int) []time.Duration {
		out := make([]time.Duration, len(ms))
		for i, m := range ms {
			out[i] = time.Duration(m) * time.Millisecond
		}
		return out
	}
	s := ds(10, 20, 30, 40, 50)
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0, 10 * time.Millisecond}, {0.5, 30 * time.Millisecond}, {0.9, 46 * time.Millisecond}, {1, 50 * time.Millisecond}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples must be 0")
	}
	if got := median(ds(40, 10, 30)); got != 30*time.Millisecond {
		t.Errorf("median = %v, want 30ms", got)
	}

	// Two pre-roll observations, three in the window, one during drain.
	all := ds(1, 2, 3, 4, 5, 6)
	if got := sliceWindow(all, 2, 5); !reflect.DeepEqual(got, ds(3, 4, 5)) {
		t.Errorf("sliceWindow(2,5) = %v", got)
	}
	if got := sliceWindow(all, 4, 9); !reflect.DeepEqual(got, ds(5, 6)) {
		t.Errorf("sliceWindow past the end = %v", got)
	}
	if got := sliceWindow(all, 7, 9); len(got) != 0 {
		t.Errorf("sliceWindow beyond the reservoir = %v", got)
	}
}

// TestSpreadMatchesPythonQuantiles pins the quartile method to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	med, rng, iqr := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || math.Abs(rng-9/5.5) > 1e-12 || math.Abs(iqr-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v %v %v", med, rng, iqr)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables the
// harness reports from, and to the driver's limits on names and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, harness has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %+v, harness has %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, declared []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, harness has %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, harness has %+v", kind, i, m, d)
			}
			if !metricNameRE.MatchString(d.name) || len(d.name) > 64 || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
			if d.better != "lower" && d.better != "higher" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound declared %v, harness %v (must be in (0, 0.25])", d.name, m.Bound, d.bound)
			case !bounded && (m.Bound != nil || d.bound != 0):
				t.Errorf("%s: a per-layer metric carries no bound", d.name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics, true)
	check("per_layer", bf.PerLayer, perLayerMetrics, false)
	if !seen["setup_s"] {
		t.Error("setup_s missing")
	}
}

// smoke is the shortened protocol the tests run.
func smoke(tr *tracer) runConfig {
	return runConfig{seed: 3, preroll: 250 * time.Millisecond, window: time.Second, builds: 1, tr: tr}
}

// TestSmokeEveryWorkload runs a one-second window of each workload and
// requires the output checks to pass, every end-to-end metric to be
// reported, and no goroutine to outlive the run. Goodput may read zero:
// under the race detector no frame meets a 100 ms deadline.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads() {
		baseline := runtime.NumGoroutine()
		o, err := runWorkload(w, smoke(nil))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rep := render(io.Discard, o, endToEndMetrics, o.endToEnd)
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: checks failed: %v", w.name, o.problems)
		}
		for _, d := range endToEndMetrics {
			m, ok := rep.Metrics[d.name]
			if !ok || m.Value < 0 || (m.Value == 0 && d.name != "goodput_eps") {
				t.Errorf("%s: %s = %v (reported: %v), want > 0", w.name, d.name, m.Value, ok)
			}
		}
		if o.winOffered == 0 || o.totals.offered <= o.winOffered {
			t.Errorf("%s: %d offers in the window of %d in all; the pre-roll must be excluded", w.name, o.winOffered, o.totals.offered)
		}
		waitGoroutines(t, w.name, baseline)
	}
}

func waitGoroutines(t *testing.T, name string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%s: %d goroutines after the run, %d before", name, n, baseline)
	}
}

func TestCloseReleasesEveryTemplate(t *testing.T) {
	w, _ := workloadByName("relay_vga")
	r, err := build(w)
	if err != nil {
		t.Fatal(err)
	}
	var templates []*frame.Frame
	for _, ln := range r.lanes {
		templates = append(templates, ln.templates...)
	}
	r.close()
	if len(templates) != w.lanes*templatesPerLane {
		t.Fatalf("%d templates, want %d", len(templates), w.lanes*templatesPerLane)
	}
	for i, f := range templates {
		if !f.Released() {
			t.Errorf("template %d not released", i)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced protocol's two
// parts — a traced window and the probes — on the cheapest workload and
// one with services, and requires every per-layer metric the live run and
// the probes own to be present.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"relay_vga", "pose_steady"} {
		w, _ := workloadByName(name)
		baseline := runtime.NumGoroutine()
		tr := newTracer(w.name)
		rc := smoke(tr)
		rc.window = 300 * time.Millisecond
		o, err := runWorkload(w, rc)
		if err != nil {
			t.Fatal(err)
		}
		probed, err := runProbes(w, tr, 3)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range probed {
			o.layer[k] = v
		}
		// measure() derives these three from the rest.
		derived := map[string]bool{"core.offer_us": true, "budget.unexplained_ms": true, "trace.overhead_frac": true}
		for _, d := range perLayerMetrics {
			if _, ok := o.layer[d.name]; !ok && !derived[d.name] {
				t.Errorf("%s: per-layer metric %s not reported", name, d.name)
			}
		}
		for k := range o.layer {
			found := false
			for _, d := range perLayerMetrics {
				found = found || d.name == k
			}
			if !found {
				t.Errorf("%s: %s reported but not declared", name, k)
			}
		}
		if len(tr.durations("core.offer")) != o.totals.offered {
			t.Errorf("%s: %d core.offer spans for %d offers", name, len(tr.durations("core.offer")), o.totals.offered)
		}
		for _, s := range tr.spans {
			if s.EndNS < s.StartNS || s.Parent >= s.ID {
				t.Fatalf("%s: malformed span %+v", name, s)
			}
		}
		if self := tr.selfTimes(); self["frame"] <= 0 || self["harness"] <= 0 {
			t.Errorf("%s: self times %v", name, self)
		}
		waitGoroutines(t, name, baseline)
	}
}
