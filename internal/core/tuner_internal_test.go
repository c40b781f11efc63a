package core

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/metrics"
	"videopipe/internal/services"
)

// hotService is a pool sample that trips the deep-queue saturation symptom.
func hotService(size int) svcSample {
	return svcSample{
		name: "svc", size: size, workers: 1, queue: 2*size + 1, busy: size,
		maxInstances: 2,
	}
}

func actStrings(acts []tunerAct) []string {
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.act.String()
	}
	return out
}

func TestTunerScalesToCeilingThenHolds(t *testing.T) {
	tu := NewTuner(nil, TunerConfig{})

	// saturatedAfter saturated ticks arm the ladder; instances are below
	// MaxInstances, so the move is a scale-out.
	var acts []tunerAct
	for i := 0; i < saturatedAfter; i++ {
		acts = tu.decide(tunerSample{services: []svcSample{hotService(1)}})
	}
	if len(acts) != 1 || acts[0].act.Kind != ActionScalePool || acts[0].n != 2 {
		t.Fatalf("hot pool below ceiling: acts = %v, want scale_pool to 2", actStrings(acts))
	}

	// Still hot at the instance ceiling, past the cooldown: scaling is the
	// pool's only actuator, so the tuner sits on its hands however hot the
	// pool runs.
	for i := 0; i < 2*cooldown; i++ {
		if acts = tu.decide(tunerSample{services: []svcSample{hotService(2)}}); len(acts) != 0 {
			t.Fatalf("tick %d, hot pool at ceiling: acts = %v, want none", i, actStrings(acts))
		}
	}
}

func TestTunerIdleShrinksToBaseline(t *testing.T) {
	tu := NewTuner(nil, TunerConfig{})
	idle := svcSample{name: "svc", size: 2, workers: 1, maxInstances: 2}
	// First sight records size 2... but baseline is the first observed
	// size, so shrink below it must never fire; start from a grown pool by
	// seeding the baseline at 1.
	tu.svc["svc"] = &tuneSvcState{baseline: 1}

	// idleAfter idle ticks shrink the pool by one, to its baseline, and
	// nothing shrinks it further.
	var got []string
	for i := 0; i < 2*idleAfter; i++ {
		acts := tu.decide(tunerSample{services: []svcSample{idle}})
		for _, a := range acts {
			got = append(got, a.act.String())
			if a.act.Kind == ActionScalePool {
				idle.size = a.n
			}
		}
	}
	if len(got) != 1 {
		t.Fatalf("idle unwind actions = %v, want one scale-down", got)
	}
	if idle.size != 1 {
		t.Errorf("after unwind: size = %d, want baseline 1", idle.size)
	}
}

// The credit window is AIMD at the target: +1 while a pressed lane's tail
// is under it, halving down to the planner's window once the tail is over
// it, unless the lane is cooling down or a pool is still moving. Each move
// starts the lane's cooldown, so the same sample a tick later moves nothing.
func TestTunerCreditsGrowAdditivelyUnderTailGuard(t *testing.T) {
	ms := time.Millisecond
	idlePool := svcSample{name: "svc", size: 1, workers: 1}
	cases := []struct {
		name  string
		lane  pipeSample
		pools []svcSample
		prime func(tu *Tuner)
		want  []string
	}{
		// An exhausted window is pressure even before a drop lands; the
		// widening is a single credit, not a doubling.
		{name: "widens just under the target",
			lane: pipeSample{credits: 2, floor: 2, avail: 0, e2eP99: 240 * ms},
			want: []string{"resize_credits lane 2->3"}},
		{name: "no widening over the target",
			lane: pipeSample{credits: 2, floor: 2, avail: 0, e2eP99: 260 * ms}},
		{name: "no widening past maxCredits",
			lane: pipeSample{credits: maxCredits, floor: 2, avail: 0, e2eP99: 100 * ms}},
		{name: "no widening without pressure",
			lane: pipeSample{credits: 2, floor: 2, avail: 1, e2eP99: 100 * ms}},
		{name: "no widening on an empty ring",
			lane: pipeSample{credits: 2, floor: 2, avail: 0, e2eP99: 0}},
		{name: "halves over the target",
			lane: pipeSample{credits: 9, floor: 2, avail: 1, e2eP99: 260 * ms},
			want: []string{"resize_credits lane 9->4"}},
		{name: "halves to the floor",
			lane: pipeSample{credits: 3, floor: 2, avail: 0, e2eP99: 260 * ms},
			want: []string{"resize_credits lane 3->2"}},
		{name: "a settled pool does not hold the halving",
			lane:  pipeSample{credits: 9, floor: 2, avail: 1, e2eP99: 260 * ms},
			pools: []svcSample{idlePool},
			want:  []string{"resize_credits lane 9->4"}},
		{name: "no narrowing below the floor",
			lane: pipeSample{credits: 3, floor: 3, avail: 1, e2eP99: 400 * ms}},
		{name: "no narrowing inside the lane's cooldown",
			lane:  pipeSample{credits: 9, floor: 2, avail: 1, e2eP99: 260 * ms},
			prime: func(tu *Tuner) { tu.pipe["lane"] = &tunePipeState{cooldownUntil: 2} }},
		{name: "no narrowing while a pool is hot",
			lane:  pipeSample{credits: 9, floor: 2, avail: 1, e2eP99: 260 * ms},
			pools: []svcSample{hotService(1)}},
		{name: "no narrowing while a pool cools down",
			lane:  pipeSample{credits: 9, floor: 2, avail: 1, e2eP99: 260 * ms},
			pools: []svcSample{idlePool},
			prime: func(tu *Tuner) { tu.svc["svc"] = &tuneSvcState{baseline: 1, cooldownUntil: 2} }},
	}
	for _, tc := range cases {
		tu := NewTuner(nil, TunerConfig{})
		if tc.prime != nil {
			tc.prime(tu)
		}
		tc.lane.name = "lane"
		s := tunerSample{services: tc.pools, pipelines: []pipeSample{tc.lane}}
		if got := actStrings(tu.decide(s)); !slices.Equal(got, tc.want) {
			t.Errorf("%s: acts = %v, want %v", tc.name, got, tc.want)
		}
		if tc.want == nil {
			continue
		}
		if got := actStrings(tu.decide(s)); len(got) != 0 {
			t.Errorf("%s: acts = %v on the next tick, inside the lane's cooldown", tc.name, got)
		}
	}
}

// After the tuner narrows a lane, and after it grows a pool, the lane's tail
// restarts: the completions in the ring, and the frames still in flight,
// were measured against a window or a pool that no longer exists. Widening
// a lane or shrinking a pool keeps them.
func TestTunerRestartsTailAfterNarrowAndGrow(t *testing.T) {
	c, p := oneLaneCluster(t)
	tu := NewTuner(c, TunerConfig{})
	ms := time.Millisecond
	start := time.Now()
	// stale completes a frame captured before the tuner's first move.
	stale := func() { p.frameDone(time.Since(start) + 300*ms) }
	// fresh completes a frame captured after the tuner's last move.
	fresh := func(e2e time.Duration) {
		time.Sleep(2 * e2e)
		p.frameDone(e2e)
	}
	tail := func(when string, want time.Duration) {
		t.Helper()
		if got := p.recentP99(); got != want {
			t.Errorf("recentP99 = %v %s, want %v", got, when, want)
		}
	}
	scale := func(n int) {
		pool, err := c.Pool("svc")
		if err != nil {
			t.Fatal(err)
		}
		tu.apply(tunerAct{act: Action{Kind: ActionScalePool, Target: "svc",
			From: strconv.Itoa(pool.Size()), To: strconv.Itoa(n)}, n: n})
	}

	// A window above the planner's two credits with a tail over the 250 ms
	// target: the first tick halves it.
	if err := p.ResizeCredits(8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < metrics.RecentTailLen; i++ {
		p.frameDone(300 * ms)
	}
	tu.step(context.Background())
	tail("after narrowing", 0)
	stale()
	tail("after a frame admitted under the wider window completes", 0)
	fresh(ms)
	tail("after one frame captured under the narrowed window completes", ms)

	tu.apply(tunerAct{act: Action{Kind: ActionResizeCredits, Target: "lane", From: "4", To: "5"}, n: 5})
	tail("after widening", ms)
	scale(2)
	tail("after the pool grew", 0)
	stale()
	tail("after a frame queued behind the smaller pool completes", 0)
	fresh(ms / 2)
	scale(1)
	tail("after the pool shrank", ms/2)

	want := []string{"resize_credits lane 8->4", "resize_credits lane 4->5", "scale_pool svc 1->2", "scale_pool svc 2->1"}
	if got := tu.JournalStrings(); !slices.Equal(got, want) {
		t.Errorf("journal = %v, want %v", got, want)
	}
}

func TestTunerDropsOnOneLanePressureWholeFleet(t *testing.T) {
	tu := NewTuner(nil, TunerConfig{})
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
		tu := NewTuner(nil, TunerConfig{})
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

// oneLaneCluster is a single-device cluster running one pass-through lane
// beside one idle service pool, "svc", for driving the tuner's sample →
// decide → apply loop against a real Pipeline.
func oneLaneCluster(t *testing.T) (*Cluster, *Pipeline) {
	return laneCluster(t, func(context.Context, services.Request) (services.Response, error) {
		return services.Response{}, nil
	})
}

// laneCluster is oneLaneCluster with the pool's handler given.
func laneCluster(t *testing.T, handler services.Handler) (*Cluster, *Pipeline) {
	t.Helper()
	reg := services.NewRegistry()
	err := reg.Register(services.Spec{Name: "svc", Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterSpec{
		Devices:  []device.Config{{Name: "desktop", Class: device.Desktop}},
		Services: []ServicePlacement{{Service: "svc", Device: "desktop"}},
	}, reg)
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

// The widening guard reads the tail of the lane's last metrics.RecentTailLen
// frames, not of the whole run: slow start-up frames hold the window shut
// only until they have left that ring. (Against the run-cumulative p99, ten
// 400 ms frames kept p99 over the guard for the next thousand.)
func TestTunerWidensOnceStartupTailLeavesTheRing(t *testing.T) {
	c, p := oneLaneCluster(t)
	tu := NewTuner(c, TunerConfig{P99Target: 400 * time.Millisecond})
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
			tu.step(context.Background())
		}
		return p.Credits()
	}
	p.PrimeCredits()
	floor := p.Credits()
	steps(1) // first sight of the lane

	complete(10, 400*time.Millisecond)
	if got := steps(3); got != floor {
		t.Fatalf("credits = %d after a 400 ms start-up tail, want the floor %d: the guard is the 400 ms target", got, floor)
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
	for i := 1; i <= 3*metrics.RecentTailLen; i++ {
		e2e := time.Duration((i*7919)%997) * time.Millisecond
		p.frameDone(e2e)
		if h.Observe(e2e); i%metrics.RecentTailLen == 0 {
			if got, want := p.recentP99(), h.Snapshot().P99; got != want {
				t.Errorf("after %d completions: recentP99 = %v, histogram of the last %d says %v", i, got, metrics.RecentTailLen, want)
			}
			h.Reset()
		}
	}
}

// The pool side of the tune phase reads the pool's recent waits, not its
// whole run: a burst of slow waits counts the pool hot only until newer
// waits have pushed it out of the ring, and a lane whose own tail is over
// the target then halves. (Against the run-cumulative wait p99, three
// 100 ms waits kept the pool hot, and so the lane's window wide, for as
// long as its queue was non-empty.)
func TestTunerPoolWaitForgetsAnEarlyBurst(t *testing.T) {
	release := make(chan struct{})
	var stall atomic.Int64
	c, p := laneCluster(t, func(_ context.Context, req services.Request) (services.Response, error) {
		if req.Frame != nil {
			<-release
		}
		time.Sleep(time.Duration(stall.Load()))
		return services.Response{}, nil
	})
	pool, err := c.Pool("svc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := time.Millisecond

	// One request runs and one queues on the first instance, then a second
	// instance joins: the queue stays non-empty through the ticks below,
	// neither deep nor behind every worker, so only the wait signal can
	// call the pool hot.
	var held sync.WaitGroup
	defer func() { close(release); held.Wait() }()
	for _, settled := range []func() bool{
		func() bool { return pool.BusyWorkers() == 1 },
		func() bool { return pool.QueueDepth() == 1 },
	} {
		held.Add(1)
		go func() {
			defer held.Done()
			pool.Invoke(ctx, services.Request{Frame: frame.MustNew(1, 1)})
		}()
		for !settled() {
			time.Sleep(ms)
		}
	}
	if err := pool.Scale(2); err != nil {
		t.Fatal(err)
	}

	tu := NewTuner(c, TunerConfig{})
	if err := p.ResizeCredits(8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < metrics.RecentTailLen; i++ {
		p.frameDone(300 * ms)
	}
	invoke := func(n int, wait time.Duration) {
		stall.Store(int64(wait))
		for i := 0; i < n; i++ {
			if _, err := pool.Invoke(ctx, services.Request{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick := func(when string, wantHot bool, wantCredits int) {
		t.Helper()
		tu.step(ctx)
		if hot := tu.svc["svc"].hotSteps > 0; hot != wantHot {
			t.Errorf("pool hot = %v %s, want %v (recent wait p99 %v)", hot, when, wantHot, pool.RecentWaitP99())
		}
		if got := p.Credits(); got != wantCredits {
			t.Errorf("credits = %d %s, want %d", got, when, wantCredits)
		}
	}

	invoke(3, 100*ms)
	tick("after a burst of 100 ms waits", true, 8)
	invoke(metrics.RecentTailLen, 0)
	tick("once fast waits have filled the ring", false, 4)
	for i := 0; i < 3; i++ {
		tick("on the ticks after", false, 4)
	}
	if got, want := tu.JournalStrings(), []string{"resize_credits lane 8->4"}; !slices.Equal(got, want) {
		t.Errorf("journal = %v, want %v", got, want)
	}
}
