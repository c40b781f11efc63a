package core_test

import (
	"testing"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/frame"
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

// TestTunerSetpointsPrimeRoundTrip drives the sweep's rung-to-rung carry
// through the public API: actuator state learned on one cluster is
// captured with Setpoints and restored onto a fresh cluster with Prime.
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
	pose1.SetBatching(3, pose1.Spec().BatchLinger)
	if err := p1.ResizeCredits(5); err != nil {
		t.Fatalf("ResizeCredits: %v", err)
	}

	sp := core.NewTuner(c1, core.TunerConfig{}).Setpoints()
	if got := sp.Services[services.PoseDetector]; got.Size != 2 || got.Batch != 3 {
		t.Fatalf("captured pose setpoint = %+v, want size 2 batch 3", got)
	}
	if got := sp.Pipelines["carry"]; got != 5 {
		t.Fatalf("captured credits = %d, want 5", got)
	}
	if len(sp.Placements["carry"]) == 0 {
		t.Fatal("captured setpoints carry no placement")
	}

	// A fresh cluster starts cold; Prime must restore the learned state
	// without journaling anything (it is configuration, not a decision).
	c2 := homeCluster(t)
	p2, err := c2.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	tu := core.NewTuner(c2, core.TunerConfig{})
	tu.Prime(sp)
	pose2, err := c2.Pool(services.PoseDetector)
	if err != nil {
		t.Fatalf("Pool: %v", err)
	}
	if got := pose2.Size(); got != 2 {
		t.Errorf("primed pose pool size = %d, want 2", got)
	}
	if got := pose2.BatchSize(); got != 3 {
		t.Errorf("primed pose batch = %d, want 3", got)
	}
	if got := p2.Credits(); got != 5 {
		t.Errorf("primed credits = %d, want 5", got)
	}
	if j := tu.Journal(); len(j) != 0 {
		t.Errorf("Prime journaled %d actions, want none", len(j))
	}

	// Prime never narrows: a cluster already wider than the carried state
	// keeps its capacity.
	if err := pose2.Scale(3); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	tu.Prime(sp)
	if got := pose2.Size(); got != 3 {
		t.Errorf("Prime shrank the pool to %d; carried state must only grow capacity", got)
	}
}
