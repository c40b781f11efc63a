package device

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

// A module that provably keeps no state runs on several contexts at once;
// these tests hold what must not change when it does: per-edge order,
// frame and credit conservation, breach counting, hot swap and Close.

// span is one service call's wall-clock interval.
type span struct{ start, end time.Time }

// sleeper is a stub service that holds each call for the message's ms, or
// without one for a seeded 1–40 ms (a function of its seq, so a rerun sleeps
// the same), and remembers when each call ran.
type sleeper struct {
	mu    sync.Mutex
	spans []span
}

func (s *sleeper) spec(name string) services.Spec {
	return services.Spec{Name: name, Workers: 2 * statelessReplicas,
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			start := time.Now()
			ms, fixed := req.Args["ms"].(float64)
			if !fixed {
				seq, _ := req.Args["seq"].(float64)
				ms = float64(1 + rand.New(rand.NewSource(int64(seq))).Intn(40))
			}
			time.Sleep(time.Duration(ms) * time.Millisecond)
			s.mu.Lock()
			s.spans = append(s.spans, span{start, time.Now()})
			s.mu.Unlock()
			return services.Response{Result: map[string]script.Value{"ok": true}}, nil
		}}
}

// overlaps counts the calls that began before the previous one (by start
// time) had ended.
func (s *sleeper) overlaps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.spans, func(i, j int) bool { return s.spans[i].start.Before(s.spans[j].start) })
	n := 0
	for i := 1; i < len(s.spans); i++ {
		if s.spans[i].start.Before(s.spans[i-1].end) {
			n++
		}
	}
	return n
}

const (
	// stageSrc does its slow work first and forwards after: the calls of
	// consecutive events overlap, the forwards must not swap.
	stageSrc = `function event_received(m) {
		call_service("work", {seq: m.seq});
		call_module("sink", {frame_ref: m.frame_ref, seq: m.seq});
	}`
	// orderedSinkSrc is relay_vga's sink: it throws unless seq is strictly
	// increasing.
	orderedSinkSrc = `var last = -1;
	function event_received(m) {
		if (m.seq <= last) { throw "seq " + m.seq + " after " + last; }
		last = m.seq;
		frame_done();
	}`
)

// stagePair spawns stage -> sink on one device with the sleeper deployed,
// and a credit window of the given size watching both.
func stagePair(t *testing.T, stage string, window int64) (*Device, *Module, *sleeper, *creditWindow) {
	t.Helper()
	d := newDevice(t, testNet(), "desktop", Desktop)
	work := &sleeper{}
	if _, err := d.DeployService(work.spec("work"), 1); err != nil {
		t.Fatal(err)
	}
	sink, err := d.SpawnModule(ModuleSpec{Name: "sink", Source: orderedSinkSrc})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{Name: "stage", Source: stage, Services: []string{"work"}, Next: []Route{{Module: "sink"}}})
	if err != nil {
		t.Fatal(err)
	}
	credits := watchCredits(sink, window)
	m.SetFrameAbandoned(func() { credits.avail.Add(1) })
	return d, m, work, credits
}

// offerBursts injects frames seq = 0..n-1 in bursts of the whole window,
// each burst as soon as the last has drained.
func offerBursts(t *testing.T, m *Module, credits *creditWindow, window int64, n int) {
	t.Helper()
	for seq := 0; seq < n; {
		waitFor(t, func() bool { return credits.avail.Load() == window })
		for i := int64(0); i < window && seq < n; i, seq = i+1, seq+1 {
			credits.avail.Add(-1)
			if err := m.Inject(context.Background(), map[string]any{"seq": float64(seq)}, frame.MustNewPooled(8, 8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool { return credits.avail.Load() == window })
}

func TestReplicasKeepEdgeOrder(t *testing.T) {
	const window, frames = 10, 500
	outstanding := frame.Pool.Outstanding()
	d, m, work, credits := stagePair(t, stageSrc, window)
	if got := len(m.workers); got != statelessReplicas {
		t.Fatalf("stateless stage runs on %d contexts, want %d", got, statelessReplicas)
	}
	// The shape recorder's hook is called from every worker.
	var seenMu sync.Mutex
	seen := 0
	m.SetShapeObserver(func(string, script.Value) {
		seenMu.Lock()
		seen++
		seenMu.Unlock()
	})

	offerBursts(t, m, credits, window, frames)

	if errs := d.reg.Meter("module.sink.errors").Count(); errs != 0 {
		t.Errorf("sink threw %d times: events reached it out of order", errs)
	}
	if done := d.reg.Meter("pipeline.sink.frames_done").Count(); done != frames {
		t.Errorf("frames_done = %d, want the %d admitted", done, frames)
	}
	if seen != frames {
		t.Errorf("shape observer saw %d payloads, want %d", seen, frames)
	}
	waitFor(t, func() bool { return d.Store().Len() == 0 })
	if got := frame.Pool.Outstanding() - outstanding; got != 0 {
		t.Errorf("pool outstanding = start%+d with nothing in flight", got)
	}
	if n := work.overlaps(); n < frames/10 {
		t.Errorf("only %d of %d service calls overlapped another: the stage was not replicated", n, frames)
	}
}

func TestStatefulModuleNeverOverlaps(t *testing.T) {
	const window, frames = 10, 60
	d, m, work, credits := stagePair(t, "var handled = 0;\n"+stageSrc, window)
	if got := len(m.workers); got != 1 {
		t.Fatalf("module with a top-level var runs on %d contexts, want 1", got)
	}
	offerBursts(t, m, credits, window, frames)
	if done := d.reg.Meter("pipeline.sink.frames_done").Count(); done != frames {
		t.Errorf("frames_done = %d, want %d", done, frames)
	}
	if n := work.overlaps(); n != 0 {
		t.Errorf("%d service calls of a single-context module overlapped", n)
	}
}

// Hot swaps between replicated and single-context code take effect at a
// ticket boundary: nothing in flight is lost, nothing overtakes.
func TestUpdateSourceAcrossReplication(t *testing.T) {
	const window, frames = 10, 300
	d, m, _, credits := stagePair(t, stageSrc, window)
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		for _, src := range []string{"var handled = 0;\n" + stageSrc, stageSrc} {
			time.Sleep(150 * time.Millisecond)
			for {
				err := m.UpdateSource(src)
				if err == nil {
					break
				}
				if !strings.Contains(err.Error(), "pending") {
					t.Errorf("UpdateSource: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	offerBursts(t, m, credits, window, frames)
	<-swapped
	waitFor(t, func() bool { return d.reg.Meter("module.stage.updates").Count() == 2 })
	// One more burst runs on the last code for certain.
	for seq := frames; seq < frames+window; seq++ {
		credits.avail.Add(-1)
		if err := m.Inject(context.Background(), map[string]any{"seq": float64(seq)}, frame.MustNewPooled(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return credits.avail.Load() == window })
	if errs := d.reg.Meter("module.sink.errors").Count() + d.reg.Meter("module.stage.errors").Count(); errs != 0 {
		t.Errorf("%d events failed or arrived out of order across the swaps", errs)
	}
	if done := d.reg.Meter("pipeline.sink.frames_done").Count(); done != frames+window {
		t.Errorf("frames_done = %d, want %d", done, frames+window)
	}
	if abandoned := d.reg.Meter("module.stage.abandoned").Count(); abandoned != 0 {
		t.Errorf("%d frames abandoned by a hot swap", abandoned)
	}
}

// Consecutive breaches are counted in inbox order whichever worker ran
// them: three, each on its own context, kill the module exactly once.
func TestModuleBreachesAcrossWorkersKillOnce(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	work := &sleeper{}
	if _, err := d.DeployService(work.spec("work"), 1); err != nil {
		t.Fatal(err)
	}
	// The call keeps each event alive long enough for the next to start on
	// another context; the loop then breaches.
	m, err := d.SpawnModule(ModuleSpec{
		Name: "runaway", Services: []string{"work"}, Limits: script.Limits{Instructions: 2000},
		Source: `function event_received(m) { call_service("work", {ms: 40}); while (true) {} }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	credits := watchCredits(m, 4)
	for i := 0; i < 4; i++ {
		credits.avail.Add(-1)
		if err := m.Inject(context.Background(), nil, frame.MustNewPooled(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return credits.avail.Load() == 4 })
	if !m.Killed() {
		t.Fatal("module survived four straight breaches")
	}
	if n := work.overlaps(); n == 0 {
		t.Error("the breaching events never overlapped: the test did not spread them over workers")
	}
	if killed := d.reg.Meter("script.runaway.killed").Count(); killed != 1 {
		t.Errorf("killed marked %d times, want exactly once", killed)
	}
	if abandoned := d.reg.Meter("module.runaway.abandoned").Count(); abandoned != 4 {
		t.Errorf("abandoned = %d, want 4 (one credit per breached or quarantined frame)", abandoned)
	}
	// Quarantined from here on.
	credits.avail.Add(-1)
	if err := m.Inject(context.Background(), nil, frame.MustNewPooled(8, 8)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return credits.avail.Load() == 4 })
	if events := d.reg.Meter("module.runaway.events").Count(); events != 4 {
		t.Errorf("%d events ran, want 4: a killed module runs nothing", events)
	}
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

// Close with one worker blocked in its delivery and the rest parked behind
// it on the sequencer returns, and every frame the module held — the
// workers' and the inbox's — is abandoned exactly once.
func TestCloseWakesParkedWorkers(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	// A destination nobody drains.
	stuck := &Module{events: make(chan event), done: make(chan struct{})}
	d.mu.Lock()
	d.modules["sink"] = stuck
	d.mu.Unlock()
	defer d.DropModule("sink")
	m, err := d.SpawnModule(ModuleSpec{
		Name: "stage", Next: []Route{{Module: "sink"}},
		Source: `function event_received(m) { call_module("sink", {frame_ref: m.frame_ref}); }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := int64(statelessReplicas + 1)
	credits := watchCredits(m, held)
	for i := int64(0); i < held; i++ {
		credits.avail.Add(-1)
		if err := m.Inject(context.Background(), nil, frame.MustNewPooled(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	// The last inject only fitted because every worker had taken an event.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with workers parked on the sequencer")
	}
	if got := credits.avail.Load(); got != held {
		t.Errorf("credits = %d of %d after Close", got, held)
	}
	if abandoned := d.reg.Meter("module.stage.abandoned").Count(); abandoned != uint64(held) {
		t.Errorf("abandoned = %d, want %d: each held frame once", abandoned, held)
	}
	if n := d.Store().Len(); n != 0 {
		t.Errorf("%d frames left in the store", n)
	}
}
