//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// TestOfferAllocs pins a warm admitted Offer with the frame_done() event it
// starts (allocation counts are process-wide, so the event is measured with
// it, each offer waiting for the last to finish). Offer builds the event's
// message object directly, its two numbers and the frame_ref the module sets
// on it go into the object's fields unboxed, and the event path allocates
// nothing of its own, so what is left is the message.
func TestOfferAllocs(t *testing.T) {
	c, err := NewCluster(ClusterSpec{
		Devices:     []device.Config{{Name: "phone", Class: device.Phone}},
		DefaultLink: netsim.WiFi,
	}, services.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Launch(PipelineConfig{
		Name:    "offer",
		Modules: []ModuleConfig{{Name: "a", Source: `function event_received(message) { frame_done(); }`}},
		Source:  SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 8, Height: 8, Scene: "squat", RepRate: 0.5},
	}, CoLocatePlanner{})
	if err != nil {
		t.Fatal(err)
	}
	p.PrimeCredits()
	done := c.Metrics().Meter("pipeline.offer.a.frames_done")

	const runs, warm = 100, 2000 // warm: past the histograms' sample reservoirs
	frames := make([]*frame.Frame, warm+runs+1)
	for i := range frames {
		frames[i] = frame.MustNew(8, 8)
		frames[i].Seq, frames[i].Captured = uint64(i), time.Now()
	}
	next := 0
	offer := func() {
		before := done.Count()
		if !p.Offer(frames[next]) {
			t.Fatalf("offer %d refused", next)
		}
		next++
		for done.Count() == before {
			runtime.Gosched()
		}
	}
	for next < warm {
		offer()
	}
	allocs := testing.AllocsPerRun(runs, offer)
	t.Logf("warm admitted Offer and its frame_done() event: %.1f allocs", allocs)
	if allocs > 1 {
		t.Errorf("warm admitted Offer and its frame_done() event: %.1f allocs, want <= 1", allocs)
	}
}

// TestLoopStepAllocs pins a warm tick of a loop with a tune phase, on a
// launched one-lane cluster, at zero allocations, and keeps it there once
// the pool's whole-run wait histogram holds its full 8192-sample reservoir:
// the tick reads fixed-size recent tails, so its work does not grow with
// the waits a pool has recorded.
func TestLoopStepAllocs(t *testing.T) {
	c, _ := oneLaneCluster(t)
	pool, err := c.Pool("svc")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(c, LoopConfig{Tune: &TunerConfig{}})
	ctx := context.Background()
	step := func() { l.step(ctx) }
	for _, tc := range []struct {
		name  string
		waits int
	}{{"an empty wait reservoir", 0}, {"a full wait reservoir", 8192}} {
		for i := 0; i < tc.waits; i++ {
			if _, err := pool.Invoke(ctx, services.Request{}); err != nil {
				t.Fatal(err)
			}
		}
		step()
		allocs := testing.AllocsPerRun(100, step)
		t.Logf("warm tick with %s (%d waits): %.1f allocs", tc.name, pool.WaitStats().Count, allocs)
		if allocs != 0 {
			t.Errorf("warm tick with %s: %.1f allocs, want 0", tc.name, allocs)
		}
	}
	if got := l.Journal(); len(got) != 0 {
		t.Errorf("journal = %v, want no actions: the ticks measured were not the quiet ones", got)
	}
}
