//go:build !race

package core_test

import (
	"runtime"
	"testing"
	"time"

	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// TestOfferAllocs pins a warm admitted Offer with the frame_done() event it
// starts (allocation counts are process-wide, so the event is measured with
// it, each offer waiting for the last to finish). Offer builds the event's
// message object directly, and the event path allocates nothing of its own,
// so what is left is the message, its two boxed numbers, and the boxed
// frame_ref the module sets on it.
func TestOfferAllocs(t *testing.T) {
	c, err := core.NewCluster(core.ClusterSpec{
		Devices:     []device.Config{{Name: "phone", Class: device.Phone}},
		DefaultLink: netsim.WiFi,
	}, services.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Launch(core.PipelineConfig{
		Name:    "offer",
		Modules: []core.ModuleConfig{{Name: "a", Source: `function event_received(message) { frame_done(); }`}},
		Source:  core.SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 8, Height: 8, Scene: "squat", RepRate: 0.5},
	}, core.CoLocatePlanner{})
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
	if allocs > 4 {
		t.Errorf("warm admitted Offer and its frame_done() event: %.1f allocs, want <= 4", allocs)
	}
}
