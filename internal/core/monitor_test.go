package core_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

func TestMonitorReportsPipelinesAndServices(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("monfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	mon := core.NewMonitor(c)

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), time.Second)
	}()
	time.Sleep(600 * time.Millisecond)
	rep := mon.Sample()
	<-done

	if len(rep.Pipelines) != 1 || rep.Pipelines[0].Pipeline != "monfit" {
		t.Fatalf("pipelines = %+v", rep.Pipelines)
	}
	ph := rep.Pipelines[0]
	if ph.Delivered == 0 {
		t.Error("monitor saw no delivered frames")
	}
	if ph.Stalled {
		t.Error("healthy pipeline flagged as stalled")
	}
	if len(ph.Modules) != 5 {
		t.Errorf("modules observed = %d, want 5", len(ph.Modules))
	}
	if len(rep.Services) != 5 {
		t.Errorf("services observed = %d, want 5", len(rep.Services))
	}
	foundPose := false
	for _, s := range rep.Services {
		if s.Service == services.PoseDetector {
			foundPose = true
			if s.Device != "desktop" || s.Instances != 1 || s.Calls == 0 {
				t.Errorf("pose health = %+v", s)
			}
		}
	}
	if !foundPose {
		t.Error("pose service missing from report")
	}
	out := rep.String()
	if !strings.Contains(out, "monfit") || !strings.Contains(out, services.PoseDetector) {
		t.Errorf("report rendering: %q", out)
	}
}

func TestMonitorDetectsStall(t *testing.T) {
	c := homeCluster(t)
	// A pipeline whose sink never calls frame_done: after the credits are
	// consumed, nothing progresses — a stall.
	cfg := core.PipelineConfig{
		Name: "stuck",
		Modules: []core.ModuleConfig{
			{Name: "hole", Source: `function event_received(m) { /* swallow the frame */ }`},
		},
		Source: core.SourceConfig{
			Device: "phone", FirstModule: "hole", FPS: 15,
			Width: 64, Height: 48,
		},
	}
	p, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	mon := core.NewMonitor(c)
	mon.StallAfter = 200 * time.Millisecond

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), 1200*time.Millisecond)
	}()
	defer func() { <-done }()

	deadline := time.Now().Add(time.Second)
	stalled := false
	for time.Now().Before(deadline) {
		rep := mon.Sample()
		for _, ph := range rep.Pipelines {
			if ph.Pipeline == "stuck" && ph.Stalled {
				stalled = true
			}
		}
		if stalled {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !stalled {
		t.Error("monitor never flagged the stuck pipeline")
	}
}

func TestMonitorRunDeliversReports(t *testing.T) {
	c := homeCluster(t)
	mon := core.NewMonitor(c)
	mon.Interval = 20 * time.Millisecond

	got := make(chan core.Report, 8)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	go mon.Run(ctx, func(r core.Report) {
		select {
		case got <- r:
		default:
		}
	})
	<-ctx.Done()
	if len(got) == 0 {
		t.Error("monitor Run produced no reports")
	}
}

func TestLatencyAwarePlannerMatchesCoLocateOnPaperTopology(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("lat", 20, "squat")
	plan, err := core.LatencyAwarePlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	want := map[string]string{
		"video_streaming":      "phone",
		"pose_detection":       "desktop",
		"activity_recognition": "desktop",
		"rep_counter":          "desktop",
		"display":              "tv",
	}
	for mod, dev := range want {
		if plan.Placement[mod] != dev {
			t.Errorf("placement[%s] = %q, want %q", mod, plan.Placement[mod], dev)
		}
	}
}

func TestLatencyAwarePlannerRespectsPins(t *testing.T) {
	c := homeCluster(t)
	cfg := validConfig()
	cfg.Modules[0].Device = "tv"
	plan, err := core.LatencyAwarePlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if plan.Placement["a"] != "tv" {
		t.Errorf("pin ignored: %v", plan.Placement)
	}
	cfg.Modules[0].Device = "ghost"
	if _, err := (core.LatencyAwarePlanner{}).Plan(&cfg, c); err == nil {
		t.Error("unknown pin accepted")
	}
}

func TestLatencyAwarePlannerAvoidsExpensiveLink(t *testing.T) {
	// Give the chain no services so placement is driven purely by
	// transfers; make the phone<->desktop link terrible. The planner
	// should keep the whole chain on the phone rather than hop across.
	c := homeCluster(t)
	c.Network().SetLink("phone", "desktop", netsim.LinkProfile{Latency: 500 * time.Millisecond, Bandwidth: 100_000})
	cfg := core.PipelineConfig{
		Name: "chain",
		Modules: []core.ModuleConfig{
			{Name: "a", Source: "function event_received(m) {}", Next: []string{"b"}},
			{Name: "b", Source: "function event_received(m) {}"},
		},
		Source: core.SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 480, Height: 360},
	}
	plan, err := core.LatencyAwarePlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	if plan.Placement["a"] != "phone" || plan.Placement["b"] != "phone" {
		t.Errorf("serviceless chain left the camera device: %v", plan.Placement)
	}
}

func TestLatencyAwarePipelineRuns(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("latrun", 15, "squat"), core.LatencyAwarePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if p.PlannerName() != "latency-aware" {
		t.Errorf("planner name = %q", p.PlannerName())
	}
	res, err := p.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Delivered == 0 {
		t.Error("latency-aware plan delivered nothing")
	}
}

func TestClusterMiscAccessors(t *testing.T) {
	c := homeCluster(t)
	if c.Registry() == nil {
		t.Error("nil registry")
	}
	c.SetCodec(frame.RawCodec{}) // must not panic; effect covered by the codec ablation
	c.SetCodec(frame.JPEGCodec{Quality: 85})
	if got := (core.PinnedPlanner{}).Name(); got != "pinned" {
		t.Errorf("pinned planner name = %q", got)
	}
}

func TestFileResolverReadsRelative(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "mod.js"), []byte("function event_received(m) {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	resolve := core.FileResolver(dir)
	src, err := resolve("mod.js")
	if err != nil || !strings.Contains(src, "event_received") {
		t.Errorf("FileResolver: %q, %v", src, err)
	}
	if _, err := resolve("missing.js"); err == nil {
		t.Error("missing include resolved")
	}
}

func TestPipelineModuleAccessor(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("acc", 10, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	m, ok := p.Module("display")
	if !ok || m == nil {
		t.Error("Module(display) not found")
	}
	if _, ok := p.Module("ghost"); ok {
		t.Error("Module(ghost) found")
	}
	if got := p.Placement()["display"]; got != "tv" {
		t.Errorf("Placement()[display] = %q", got)
	}
}

// TestMonitorDetectsStallUnderPartition partitions the phone↔desktop link
// mid-run and checks the monitor (a) names the exact stage the partition
// froze, (b) marks the pipeline degraded and accrues degraded time, and
// (c) clears both once the link heals and delivery resumes.
func TestMonitorDetectsStallUnderPartition(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("partmon", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	mon := core.NewMonitor(c)
	mon.StallAfter = 300 * time.Millisecond

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Run(context.Background(), 6*time.Second); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	defer func() { <-done }()

	sample := func() core.PipelineHealth {
		rep := mon.Sample()
		for _, ph := range rep.Pipelines {
			if ph.Pipeline == "partmon" {
				return ph
			}
		}
		t.Fatal("pipeline missing from report")
		return core.PipelineHealth{}
	}
	pollUntil := func(deadline time.Duration, cond func(core.PipelineHealth) bool) bool {
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if cond(sample()) {
				return true
			}
			time.Sleep(50 * time.Millisecond)
		}
		return false
	}

	// Healthy warm-up: frames flowing, nothing stalled.
	if !pollUntil(2*time.Second, func(ph core.PipelineHealth) bool { return ph.Delivered >= 3 }) {
		t.Fatal("pipeline never became healthy")
	}

	// Partition: the cross-link stages freeze while the source keeps
	// dropping frames. The monitor must name a stalled downstream module.
	c.Network().Partition("phone", "desktop")
	stalledStage := ""
	found := pollUntil(3*time.Second, func(ph core.PipelineHealth) bool {
		if !ph.Degraded {
			return false
		}
		for _, mh := range ph.Modules {
			if mh.Stalled && mh.Module != "video_streaming" {
				stalledStage = mh.Module
				return true
			}
		}
		return false
	})
	if !found {
		t.Fatal("monitor never flagged a stalled stage during the partition")
	}
	t.Logf("stalled stage during partition: %s", stalledStage)

	// Heal: delivery resumes and the stall flags clear.
	c.Network().Heal("phone", "desktop")
	cleared := pollUntil(3*time.Second, func(ph core.PipelineHealth) bool {
		if ph.Stalled || ph.Degraded {
			return false
		}
		for _, mh := range ph.Modules {
			if mh.Stalled {
				return false
			}
		}
		return true
	})
	if !cleared {
		t.Error("stall flags did not clear after heal")
	}
	if got := mon.DegradedSeconds("partmon"); got <= 0 {
		t.Errorf("DegradedSeconds = %v, want > 0 after an outage", got)
	}
	if c.Metrics().Meter("pipeline.partmon.degraded_ms").Count() == 0 {
		t.Error("degraded_ms meter never accrued")
	}
}
