package videopipe_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"videopipe"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// testServices builds a fast-calibrated registry shared by the public API
// tests.
var (
	svcOnce sync.Once
	svcReg  *videopipe.ServiceRegistry
	svcErr  error
)

func testServices(t *testing.T) *videopipe.ServiceRegistry {
	t.Helper()
	svcOnce.Do(func() {
		opts := videopipe.DefaultServiceOptions()
		opts.PoseCost = 10 * time.Millisecond
		opts.ActivityCost = 2 * time.Millisecond
		opts.RepCost = time.Millisecond
		opts.DisplayCost = time.Millisecond
		opts.FallCost = time.Millisecond
		cfg := vision.DefaultDatasetConfig()
		cfg.SequencesPerActivity = 6
		cfg.FramesPerSequence = 45
		opts.DatasetConfig = cfg
		svcReg, svcErr = videopipe.NewStandardServices(opts)
	})
	if svcErr != nil {
		t.Fatalf("NewStandardServices: %v", svcErr)
	}
	return svcReg
}

func TestPublicQuickstartFlow(t *testing.T) {
	cluster, err := videopipe.NewCluster(videopipe.HomeClusterSpec(), testServices(t))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()

	cfg := videopipe.FitnessApp("pub", 15, "squat")
	pipeline, err := cluster.Launch(cfg, videopipe.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	result, err := pipeline.Run(context.Background(), 1500*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if result.Delivered == 0 {
		t.Error("pipeline delivered nothing")
	}
	if result.Pipeline != "pub" || result.Planner != "videopipe" {
		t.Errorf("result identity: %q / %q", result.Pipeline, result.Planner)
	}
}

func TestPublicAppsValidate(t *testing.T) {
	apps := []videopipe.PipelineConfig{
		videopipe.FitnessApp("f", 20, "squat"),
		videopipe.GestureApp("g", 15, "clap"),
	}
	for _, cfg := range apps {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPublicServiceNames(t *testing.T) {
	reg := testServices(t)
	for _, name := range []string{
		videopipe.PoseDetector, videopipe.ActivityClassifier, videopipe.RepCounter,
		videopipe.Display, videopipe.ObjectDetector, videopipe.ImageClassifier,
		videopipe.FaceDetector, videopipe.FallDetector,
	} {
		if _, err := reg.Lookup(name); err != nil {
			t.Errorf("standard service %q missing: %v", name, err)
		}
	}
}

func TestPublicParseConfig(t *testing.T) {
	text := `
	modules: [ { name: only, source: "function event_received(m) { frame_done(); }" } ]
	source: { device: phone, module: only, fps: 10, width: 64, height: 48 }
	`
	cfg, err := videopipe.ParseConfig("p", text, nil)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderHappyPath(t *testing.T) {
	cfg, err := videopipe.NewPipelineBuilder("built").
		Module("a", "function event_received(m) { call_module('b', m); }").Next("b").
		Module("b", "function event_received(m) { frame_done(); }").
		Uses(videopipe.PoseDetector).
		Source("phone", "a").
		FPS(12).
		Resolution(320, 240).
		Scene("wave", 0.4).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if cfg.Name != "built" || len(cfg.Modules) != 2 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Source.FPS != 12 || cfg.Source.Width != 320 {
		t.Errorf("source = %+v", cfg.Source)
	}
}

func TestBuilderDefaults(t *testing.T) {
	cfg, err := videopipe.NewPipelineBuilder("d").
		Module("m", "function event_received(x) {}").
		Source("phone", "m").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if cfg.Source.Width != 480 || cfg.Source.Height != 360 || cfg.Source.FPS != 15 {
		t.Errorf("defaults not applied: %+v", cfg.Source)
	}
}

func TestBuilderErrors(t *testing.T) {
	// Uses before Module.
	_, err := videopipe.NewPipelineBuilder("e").Uses("x").Build()
	if err == nil || !strings.Contains(err.Error(), "before any Module") {
		t.Errorf("Uses before Module: %v", err)
	}
	// Validation failure surfaces.
	_, err = videopipe.NewPipelineBuilder("e").
		Module("m", "x").Next("ghost").
		Source("phone", "m").Build()
	if err == nil {
		t.Error("unknown next accepted")
	}
	// Next before Module.
	if _, err := videopipe.NewPipelineBuilder("e").Next("x").Build(); err == nil {
		t.Error("Next before Module accepted")
	}
}

func TestBuilderPipelineRuns(t *testing.T) {
	cluster, err := videopipe.NewCluster(videopipe.HomeClusterSpec(), testServices(t))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cluster.Close()

	cfg, err := videopipe.NewPipelineBuilder("builtrun").
		Module("ingest", `function event_received(m) { call_module("sink", {frame_ref: m.frame_ref, captured_ms: m.captured_ms}); }`).
		Next("sink").
		Module("sink", `function event_received(m) { metric("sunk", 1); frame_done(); }`).
		Source("phone", "ingest").
		FPS(20).
		Scene("idle", 0.3).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p, err := cluster.Launch(cfg, videopipe.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	res, err := p.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stages["sunk"].Count == 0 {
		t.Error("built pipeline processed nothing")
	}
}

func TestClusterSpecsDifferOnDisplay(t *testing.T) {
	home := videopipe.HomeClusterSpec()
	base := videopipe.BaselineClusterSpec()
	displayHost := func(spec videopipe.ClusterSpec) string {
		for _, sp := range spec.Services {
			if sp.Service == services.Display {
				return sp.Device
			}
		}
		return ""
	}
	if displayHost(home) != "tv" {
		t.Errorf("home display on %q, want tv", displayHost(home))
	}
	if displayHost(base) != "desktop" {
		t.Errorf("baseline display on %q, want desktop", displayHost(base))
	}
}
