package core

import (
	"context"
	"testing"
	"time"

	"videopipe/internal/device"
	"videopipe/internal/metrics"
	"videopipe/internal/services"
)

// testTunerConfig keeps the hysteresis and cooldown windows tiny so each
// scenario fits in a handful of decide calls.
func testTunerConfig() TunerConfig {
	return TunerConfig{
		P99Target:      250 * time.Millisecond,
		HighQueue:      2,
		SaturatedAfter: 2,
		IdleAfter:      3,
		Cooldown:       3,
		MaxCredits:     4,
	}
}

// hotService is a pool sample that trips the deep-queue saturation symptom.
func hotService(size int) svcSample {
	return svcSample{
		name: "svc", size: size, workers: 1, queue: 2*size + 1, busy: size,
		maxBatch: 8, maxInstances: 2, linger: 5 * time.Millisecond,
		cost: 2 * time.Millisecond, serial: 0.5,
	}
}

func actStrings(acts []tunerAct) []string {
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.act.String()
	}
	return out
}

func TestBatchCeiling(t *testing.T) {
	target := 250 * time.Millisecond
	cases := []struct {
		name string
		sv   svcSample
		want int
	}{
		// Pose-like: hold(2) = 20 + 42.5 + 2*42.5 = 147.5ms > 125ms, so
		// even a pair blows half the budget — the expensive stage never
		// batches.
		{"expensive never batches",
			svcSample{maxBatch: 4, linger: 20 * time.Millisecond, cost: 85 * time.Millisecond, serial: 0.5}, 0},
		// Cheap stage: allowance 119ms / 1ms per frame, capped at maxBatch.
		{"cheap caps at maxBatch",
			svcSample{maxBatch: 8, linger: 5 * time.Millisecond, cost: 2 * time.Millisecond, serial: 0.5}, 8},
		// Mid-cost: allowance (125-10-5)=110ms / 15ms per frame = 7.
		{"mid-cost lands between",
			svcSample{maxBatch: 16, linger: 10 * time.Millisecond, cost: 20 * time.Millisecond, serial: 0.25}, 7},
		// Fully serial: hold is independent of n, so any window that fits
		// fits at the max.
		{"fully serial fits at max",
			svcSample{maxBatch: 6, cost: 30 * time.Millisecond, serial: 1.0}, 6},
		{"fully serial over budget",
			svcSample{maxBatch: 6, linger: 130 * time.Millisecond, cost: 30 * time.Millisecond, serial: 1.0}, 0},
		// The spec must declare a batching envelope at all.
		{"no batch envelope",
			svcSample{maxBatch: 1, cost: time.Millisecond}, 0},
		{"no cost model",
			svcSample{maxBatch: 8}, 0},
	}
	for _, tc := range cases {
		if got := batchCeiling(tc.sv, target); got != tc.want {
			t.Errorf("%s: batchCeiling = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTunerScalesBeforeBatching(t *testing.T) {
	tu := NewTuner(nil, testTunerConfig())

	// Two saturated ticks arm the ladder; instances are below MaxInstances,
	// so the first move must be a scale-out, not a batch window.
	var acts []tunerAct
	for i := 0; i < 2; i++ {
		acts = tu.decide(tunerSample{services: []svcSample{hotService(1)}})
	}
	if len(acts) != 1 || acts[0].act.Kind != ActionScalePool || acts[0].n != 2 {
		t.Fatalf("hot pool below ceiling: acts = %v, want scale_pool to 2", actStrings(acts))
	}

	// Still hot at the instance ceiling, past the cooldown: the move of
	// second resort is batching, up to batchCeiling (here the spec's max).
	for i := 0; i < 6; i++ {
		acts = tu.decide(tunerSample{services: []svcSample{hotService(2)}})
		if len(acts) > 0 {
			break
		}
	}
	if len(acts) != 1 || acts[0].act.Kind != ActionSetBatch || acts[0].n != 8 {
		t.Fatalf("hot pool at ceiling: acts = %v, want set_batch to 8", actStrings(acts))
	}
}

func TestTunerNeverBatchesPastLatencyCeiling(t *testing.T) {
	tu := NewTuner(nil, testTunerConfig())
	// A pose-like stage at its instance ceiling: batchCeiling is 0, so the
	// tuner must sit on its hands no matter how hot the pool runs.
	sv := svcSample{
		name: "pose", size: 2, workers: 2, queue: 10, busy: 4,
		maxBatch: 4, maxInstances: 2, linger: 20 * time.Millisecond,
		cost: 85 * time.Millisecond, serial: 0.5,
	}
	for i := 0; i < 10; i++ {
		if acts := tu.decide(tunerSample{services: []svcSample{sv}}); len(acts) != 0 {
			t.Fatalf("tick %d: batched an expensive stage: %v", i, actStrings(acts))
		}
	}
}

func TestTunerIdleUnwindsBatchThenSize(t *testing.T) {
	tu := NewTuner(nil, testTunerConfig())
	idle := svcSample{
		name: "svc", size: 2, workers: 1, maxBatch: 8, maxInstances: 2,
		cost: 2 * time.Millisecond, batch: 4,
	}
	// First sight records size 2... but baseline is the first observed
	// size, so shrink below it must never fire; start from a grown pool by
	// seeding the baseline at 1.
	tu.svc["svc"] = &tuneSvcState{baseline: 1}

	var got []string
	for i := 0; i < 20; i++ {
		acts := tu.decide(tunerSample{services: []svcSample{idle}})
		for _, a := range acts {
			got = append(got, a.act.String())
			if a.act.Kind == ActionSetBatch {
				idle.batch = a.n
			}
			if a.act.Kind == ActionScalePool {
				idle.size = a.n
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("idle unwind actions = %v, want batch-off then scale-down", got)
	}
	if idle.batch != 0 || idle.size != 1 {
		t.Errorf("after unwind: batch = %d (want 0), size = %d (want baseline 1)", idle.batch, idle.size)
	}
}

func TestTunerCreditsGrowAdditivelyUnderTailGuard(t *testing.T) {
	tu := NewTuner(nil, testTunerConfig())
	lane := pipeSample{name: "lane", credits: 2, avail: 0, e2eP99: 100 * time.Millisecond}

	// An exhausted window is pressure even before a drop lands; the first
	// widen is a single credit, not a doubling.
	acts := tu.decide(tunerSample{pipelines: []pipeSample{lane}})
	if len(acts) != 1 || acts[0].act.Kind != ActionResizeCredits || acts[0].n != 3 {
		t.Fatalf("pressed lane under budget: acts = %v, want resize_credits to 3", actStrings(acts))
	}
	// Inside the cooldown nothing moves.
	if acts := tu.decide(tunerSample{pipelines: []pipeSample{lane}}); len(acts) != 0 {
		t.Errorf("resize inside cooldown: %v", actStrings(acts))
	}
	// Past the cooldown but with the tail above 5/8 of the target — still
	// inside the budget! — the guard holds: widening acts a cooldown after
	// the tail that justified it, so growth must stop short of the edge.
	// Shedding at the source is the defense now, not a wider window.
	lane.credits = 3
	lane.e2eP99 = 160 * time.Millisecond
	for i := 0; i < 6; i++ {
		if acts := tu.decide(tunerSample{pipelines: []pipeSample{lane}}); len(acts) != 0 {
			t.Fatalf("widened a lane whose tail is over target: %v", actStrings(acts))
		}
	}
	// Tail back under budget: growth resumes until MaxCredits, then stops.
	lane.e2eP99 = 120 * time.Millisecond
	lane.credits = 4 // == MaxCredits
	for i := 0; i < 6; i++ {
		if acts := tu.decide(tunerSample{pipelines: []pipeSample{lane}}); len(acts) != 0 {
			t.Fatalf("widened past MaxCredits: %v", actStrings(acts))
		}
	}
}

func TestTunerDropsOnOneLanePressureWholeFleet(t *testing.T) {
	tu := NewTuner(nil, testTunerConfig())
	a := pipeSample{name: "a", credits: 2, avail: 1, drops: 0, e2eP99: 50 * time.Millisecond}
	b := pipeSample{name: "b", credits: 2, avail: 1, drops: 0, e2eP99: 50 * time.Millisecond}
	// First sight: pre-existing drops are history, and neither lane is
	// pressed (credits available).
	if acts := tu.decide(tunerSample{pipelines: []pipeSample{a, b}}); len(acts) != 0 {
		t.Fatalf("first sight acted: %v", actStrings(acts))
	}
	// A drop on lane a presses lane b too — the fleet shares the burst.
	a.drops = 1
	acts := tu.decide(tunerSample{pipelines: []pipeSample{a, b}})
	if len(acts) != 2 {
		t.Fatalf("one-lane drop: acts = %v, want both lanes widened", actStrings(acts))
	}
	for i, want := range []string{"a", "b"} {
		if acts[i].act.Kind != ActionResizeCredits || acts[i].act.Target != want {
			t.Errorf("act %d = %v, want resize_credits on %s", i, acts[i].act, want)
		}
	}
}

func TestTunerReplansOncePerLaneAfterFirstFrame(t *testing.T) {
	cfg := testTunerConfig()
	cfg.Replan = true
	tu := NewTuner(nil, cfg)

	// Pressed but no completed frame yet: measured costs don't exist, so
	// the re-score must wait (the credits actuator may still move).
	lane := pipeSample{name: "lane", credits: 4, avail: 0, e2eP99: 0}
	tu.pipe["lane"] = &tunePipeState{seen: true}
	rebalances := func(acts []tunerAct) int {
		n := 0
		for _, a := range acts {
			if a.act.Kind == ActionRebalanceModule {
				n++
			}
		}
		return n
	}
	if got := rebalances(tu.decide(tunerSample{pipelines: []pipeSample{lane}})); got != 0 {
		t.Fatalf("replanned before the first completed frame (%d acts)", got)
	}
	// With latency measured, the replan fires exactly once, regardless of
	// how long the pressure lasts or where the cooldown sits.
	lane.e2eP99 = 90 * time.Millisecond
	total := 0
	for i := 0; i < 10; i++ {
		total += rebalances(tu.decide(tunerSample{pipelines: []pipeSample{lane}}))
	}
	if total != 1 {
		t.Errorf("rebalance fired %d times under sustained pressure, want exactly once", total)
	}
}

func TestTunerDecisionsAreDeterministic(t *testing.T) {
	// decide is a pure function of the sample stream: two tuners fed the
	// identical sequence must emit identical journals, tick for tick. The
	// stream deliberately mixes every regime — hot, idle, pressed, guarded.
	stream := make([]tunerSample, 0, 40)
	for i := 0; i < 40; i++ {
		sv := hotService(1 + i%2)
		if i%7 < 3 {
			sv.queue, sv.busy = 0, 0 // idle stretch
		}
		lane := pipeSample{name: "lane", credits: 2 + i%3, avail: i % 2, e2eP99: time.Duration(i%5) * 60 * time.Millisecond}
		if i%3 == 0 {
			lane.drops = uint64(i)
		}
		stream = append(stream, tunerSample{services: []svcSample{sv}, pipelines: []pipeSample{lane}})
	}

	run := func() []string {
		cfg := testTunerConfig()
		cfg.Replan = true
		tu := NewTuner(nil, cfg)
		var out []string
		for _, s := range stream {
			out = append(out, actStrings(tu.decide(s))...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("determinism stream produced no actions; the scenario is vacuous")
	}
	if len(a) != len(b) {
		t.Fatalf("journal lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("journals diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// oneLaneCluster is a single-device cluster running one pass-through lane,
// for driving the tuner's sample → decide → apply loop against a real
// Pipeline.
func oneLaneCluster(t *testing.T) (*Cluster, *Pipeline) {
	t.Helper()
	c, err := NewCluster(ClusterSpec{Devices: []device.Config{{Name: "desktop", Class: device.Desktop}}}, services.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	p, err := c.Launch(PipelineConfig{
		Name:    "lane",
		Modules: []ModuleConfig{{Name: "sink", Source: `function event_received(m) { frame_done(); }`}},
		Source:  SourceConfig{Device: "desktop", FirstModule: "sink", FPS: 10, Width: 8, Height: 8},
	}, CoLocatePlanner{})
	if err != nil {
		t.Fatal(err)
	}
	return c, p
}

// The widening guard reads the tail of the lane's last recentCompletions
// frames, not of the whole run: slow start-up frames hold the window shut
// only until they have left that ring. (Against the run-cumulative p99, ten
// 400 ms frames kept p99 over the guard for the next thousand.)
func TestTunerWidensOnceStartupTailLeavesTheRing(t *testing.T) {
	c, p := oneLaneCluster(t)
	tu := NewTuner(c, TunerConfig{P99Target: 400 * time.Millisecond, Cooldown: 1})
	ctx := context.Background()
	// complete records n finished frames and leaves the window exhausted, so
	// every tick sees pressure and only the guard decides.
	complete := func(n int, e2e time.Duration) {
		for i := 0; i < n; i++ {
			p.frameDone(e2e)
		}
		for p.CreditsAvail() > 0 {
			p.takeCredit()
		}
	}
	steps := func(n int) int {
		for i := 0; i < n; i++ {
			tu.Step(ctx)
		}
		return p.Credits()
	}
	p.PrimeCredits()
	floor := p.Credits()
	steps(1) // first sight of the lane

	complete(10, 400*time.Millisecond)
	if got := steps(3); got != floor {
		t.Fatalf("credits = %d after a 400 ms start-up tail, want the floor %d: the guard is 250 ms", got, floor)
	}
	// Sixty good frames later four of the slow ones are still among the
	// last 64, and they are the p99.
	complete(60, 120*time.Millisecond)
	if got := steps(3); got != floor {
		t.Fatalf("credits = %d with start-up frames still in the ring, want %d", got, floor)
	}
	complete(4, 120*time.Millisecond)
	if got := p.recentP99(); got != 120*time.Millisecond {
		t.Fatalf("recentP99 = %v once the ring has turned over, want 120ms", got)
	}
	if got := steps(1); got != floor+1 {
		t.Errorf("credits = %d once the ring has turned over, want %d", got, floor+1)
	}
}

// recentP99 interpolates as Histogram.Quantile does, over however many
// completions exist.
func TestRecentP99MatchesHistogram(t *testing.T) {
	_, p := oneLaneCluster(t)
	if got := p.recentP99(); got != 0 {
		t.Errorf("recentP99 = %v before the first completion", got)
	}
	var h metrics.Histogram
	for i := 1; i <= 3*recentCompletions; i++ {
		e2e := time.Duration((i*7919)%997) * time.Millisecond
		p.frameDone(e2e)
		if h.Observe(e2e); i%recentCompletions == 0 {
			if got, want := p.recentP99(), h.Quantile(0.99); got != want {
				t.Errorf("after %d completions: recentP99 = %v, histogram of the last %d says %v", i, got, recentCompletions, want)
			}
			h.Reset()
		}
	}
}
