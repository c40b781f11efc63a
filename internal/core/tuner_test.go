package core_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

// TestOfferDropReleasesFrameAndCountsIt pins the source-drop contract the
// tuner meters depend on: a frame rejected for want of a credit is
// recycled before Offer returns, and the pipeline's source_drops meter —
// the tuner's pressure signal — records the loss.
func TestOfferDropReleasesFrameAndCountsIt(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("droptest", 10, ""), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}

	// Credits are never primed, so the window is empty and the very first
	// Offer must be shed at the source.
	f, err := frame.NewPooled(apps.FrameWidth, apps.FrameHeight)
	if err != nil {
		t.Fatalf("NewPooled: %v", err)
	}
	f.Captured = time.Now()
	if p.Offer(f) {
		t.Fatal("Offer admitted a frame with no credits available")
	}
	if !f.Released() {
		t.Error("rejected frame not released — source drops would leak buffers")
	}
	if got := c.Metrics().Meter("pipeline.droptest.source_drops").Count(); got != 1 {
		t.Errorf("source_drops = %d, want 1", got)
	}
}

// Narrowing is the one path that shrinks a window under frames it already
// admitted: the frames drain without reclaiming credits early, the cap
// clamps every return, and the window ends whole at its new size with every
// buffer back in the pool.
func TestResizeCreditsNarrowConservesCredits(t *testing.T) {
	outstanding := frame.Pool.Outstanding()
	release := make(chan struct{})
	var served atomic.Int64
	reg := services.NewRegistry()
	err := reg.Register(services.Spec{Name: "gate", Workers: 8,
		Handler: func(ctx context.Context, _ services.Request) (services.Response, error) {
			select {
			case <-release:
				served.Add(1)
				return services.Response{Result: map[string]script.Value{}}, nil
			case <-ctx.Done():
				return services.Response{}, ctx.Err()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.ClusterSpec{
		Devices:  []device.Config{{Name: "desktop", Class: device.Desktop}},
		Services: []core.ServicePlacement{{Service: "gate", Device: "desktop"}},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(func() { close(release) }) // runs first: a failed test's held calls end
	// Two stages, so eight frames fit between the inboxes and the held
	// service calls.
	p, err := c.Launch(core.PipelineConfig{
		Name: "lane",
		Modules: []core.ModuleConfig{
			{Name: "front", Next: []string{"back"},
				Source: `function event_received(m) { call_module("back", {frame_ref: m.frame_ref, seq: m.seq}); }`},
			{Name: "back", Services: []string{"gate"},
				Source: `function event_received(m) { call_service("gate", {}); frame_done(); }`},
		},
		Source: core.SourceConfig{Device: "desktop", FirstModule: "front", FPS: 10, Width: 8, Height: 8},
	}, core.CoLocatePlanner{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ResizeCredits(8); err != nil {
		t.Fatal(err)
	}
	p.PrimeCredits()

	// Fill the window; an offer the full inbox refuses returns its credit.
	deadline := time.Now().Add(5 * time.Second)
	for admitted := 0; admitted < 8; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 8 frames admitted", admitted)
		}
		f := frame.MustNewPooled(8, 8)
		f.Captured = time.Now()
		if p.Offer(f) {
			admitted++
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if got := p.CreditsAvail(); got != 0 {
		t.Fatalf("credits avail = %d with the window in flight, want 0", got)
	}

	if err := p.ResizeCredits(2); err != nil {
		t.Fatal(err)
	}
	// One held call at a time. The handlers need not be released in inbox
	// order, and frame_done() waits for the older frames, so a step is one
	// call served, not one frame done.
	done := c.Metrics().Meter("pipeline.lane.back.frames_done")
	for i := 1; i <= 8; i++ {
		if avail, window := p.CreditsAvail(), p.Credits(); avail > window {
			t.Fatalf("%d calls served: avail %d > window %d", i-1, avail, window)
		}
		release <- struct{}{}
		waitCond(t, 5*time.Second, func() bool { return served.Load() == int64(i) })
	}
	waitCond(t, 5*time.Second, func() bool { return done.Count() == 8 && p.CreditsAvail() == 2 })
	if avail, window := p.CreditsAvail(), p.Credits(); avail != 2 || window != 2 {
		t.Errorf("after the drain: avail %d, window %d, want 2 and 2", avail, window)
	}
	waitCond(t, 5*time.Second, func() bool { return frame.Pool.Outstanding() == outstanding })
}

// TestTunerSetpointsPrimeRoundTrip drives the sweep's rung-to-rung carry
// through the public API: actuator state the tune phase learned on one
// cluster is captured with Setpoints and restored onto a fresh cluster
// with Prime.
func TestTunerSetpointsPrimeRoundTrip(t *testing.T) {
	cfg := apps.FitnessConfig("carry", 10, "squat")

	c1 := homeCluster(t)
	p1, err := c1.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	pose1, err := c1.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	if err := pose1.Scale(2); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	if err := p1.ResizeCredits(5); err != nil {
		t.Fatalf("ResizeCredits: %v", err)
	}

	sp := c1.Setpoints()
	if got := sp.Services[services.PoseDetector]; got != 2 {
		t.Fatalf("captured pose pool size = %d, want 2", got)
	}
	if got := sp.Pipelines["carry"]; got != 5 {
		t.Fatalf("captured credits = %d, want 5", got)
	}

	// A fresh cluster starts cold; Prime must restore the learned state.
	c2 := homeCluster(t)
	p2, err := c2.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	c2.Prime(sp)
	pose2, err := c2.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	if got := pose2.Size(); got != 2 {
		t.Errorf("primed pose pool size = %d, want 2", got)
	}
	if got := p2.Credits(); got != 5 {
		t.Errorf("primed credits = %d, want 5", got)
	}

	// Prime never narrows: a cluster already wider than the carried state
	// keeps its capacity.
	if err := pose2.Scale(3); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	c2.Prime(sp)
	if got := pose2.Size(); got != 3 {
		t.Errorf("Prime shrank the pool to %d; carried state must only grow capacity", got)
	}
}
