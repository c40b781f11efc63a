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
	"videopipe/internal/services"
)

func TestMonitorReportsPipelinesAndServices(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("monfit", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	l, _ := startLoop(t, c, core.LoopConfig{})

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), time.Second)
	}()
	time.Sleep(600 * time.Millisecond)
	rep := l.Report()
	<-done

	if len(rep.Pipelines) != 1 || rep.Pipelines[0].Pipeline != "monfit" {
		t.Fatalf("pipelines = %+v", rep.Pipelines)
	}
	ph := rep.Pipelines[0]
	if ph.Delivered == 0 {
		t.Error("loop saw no delivered frames")
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
	l, _ := startLoop(t, c, core.LoopConfig{StallAfter: 200 * time.Millisecond})

	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), 1200*time.Millisecond)
	}()
	defer func() { <-done }()

	deadline := time.Now().Add(time.Second)
	stalled := false
	for time.Now().Before(deadline) {
		rep := l.Report()
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
		t.Error("loop never flagged the stuck pipeline")
	}
}

func TestMonitorRunDeliversReports(t *testing.T) {
	c := homeCluster(t)
	l := core.NewLoop(c, core.LoopConfig{})

	got := make(chan core.Report, 8)
	// Two and a half ticks of 100 ms and at most 10% jitter.
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Run(ctx, func(r core.Report) {
			select {
			case got <- r:
			default:
			}
		})
	}()
	<-done
	if len(got) == 0 {
		t.Error("loop Run produced no reports")
	}
}

func TestClusterMiscAccessors(t *testing.T) {
	c := homeCluster(t)
	c.SetCodec(frame.RawCodec{}) // must not panic; effect covered by the codec ablation
	c.SetCodec(frame.JPEGCodec{Quality: 85})
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
// mid-run and checks the loop's sample phase (a) names the exact stage the
// partition froze, (b) marks the pipeline degraded and accrues degraded
// time, and (c) clears both once the link heals and delivery resumes.
func TestMonitorDetectsStallUnderPartition(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(apps.FitnessConfig("partmon", 15, "squat"), core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	l, _ := startLoop(t, c, core.LoopConfig{StallAfter: 300 * time.Millisecond})

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := p.Run(context.Background(), 6*time.Second); err != nil {
			t.Errorf("Run: %v", err)
		}
	}()
	defer func() { <-done }()

	// sample reads the last tick's view of the pipeline (zero before the
	// first tick).
	sample := func() core.PipelineHealth {
		for _, ph := range l.Report().Pipelines {
			if ph.Pipeline == "partmon" {
				return ph
			}
		}
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
	// dropping frames. The sample must name a stalled downstream module.
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
		t.Fatal("loop never flagged a stalled stage during the partition")
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
	if got := l.DegradedSeconds("partmon"); got <= 0 {
		t.Errorf("DegradedSeconds = %v, want > 0 after an outage", got)
	}
}

// A module's script error is counted and its text kept: the sample's
// per-module entry carries the latest one.
func TestLoopReportsModuleErrorText(t *testing.T) {
	c := homeCluster(t)
	p, err := c.Launch(core.PipelineConfig{
		Name:    "throws",
		Modules: []core.ModuleConfig{{Name: "bad", Source: `function event_received(m) { throw "cannot read frame " + m.seq; }`}},
		Source:  core.SourceConfig{Device: "phone", FirstModule: "bad", FPS: 20, Width: 64, Height: 48},
	}, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	l, _ := startLoop(t, c, core.LoopConfig{})
	if _, err := p.Run(context.Background(), 300*time.Millisecond); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var bad core.ModuleHealth
	waitCond(t, 2*time.Second, func() bool {
		for _, ph := range l.Report().Pipelines {
			if ph.Pipeline == "throws" {
				bad = ph.Modules[0]
			}
		}
		return bad.Errors > 0 && bad.LastError != ""
	})
	if !strings.Contains(bad.LastError, "cannot read frame") {
		t.Errorf("module error text = %q, want the thrown message", bad.LastError)
	}
}
