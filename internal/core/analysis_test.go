package core_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/script"
)

// twoStage builds a minimal streamer -> sink pipeline whose sink source is
// supplied by the caller.
func twoStage(sinkSource string, sinkServices []string) core.PipelineConfig {
	return core.PipelineConfig{
		Name: "undertest",
		Modules: []core.ModuleConfig{
			{
				Name:   "streamer",
				Source: `function event_received(m) { call_module("sink", {frame_ref: m.frame_ref}); }`,
				Next:   []string{"sink"},
			},
			{
				Name:     "sink",
				Source:   sinkSource,
				Services: sinkServices,
			},
		},
		Source: core.SourceConfig{Device: "phone", FirstModule: "streamer", FPS: 15, Width: 64, Height: 48},
	}
}

func findDiag(diags []core.Diagnostic, code string) (core.Diagnostic, bool) {
	for _, d := range diags {
		if d.Code == code {
			return d, true
		}
	}
	return core.Diagnostic{}, false
}

// TestAnalyzePipelineCrossChecks covers the config-aware layer: literal
// call targets vs declared services/edges, unused declarations, and the
// reachable-module event_received requirement.
func TestAnalyzePipelineCrossChecks(t *testing.T) {
	t.Run("undeclared service is an error with a position", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { call_service("pose_detector", {frame_ref: m.frame_ref}); frame_done(); }`, nil)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeUndeclaredService)
		if !ok {
			t.Fatal("no PV101 diagnostic")
		}
		if d.Severity != script.SeverityError || d.Module != "sink" {
			t.Errorf("bad diagnostic: %+v", d)
		}
		if d.Pos.Line != 1 || d.Pos.Col == 0 {
			t.Errorf("missing position: %+v", d.Pos)
		}
	})

	t.Run("call_module to a non-edge is an error", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { call_module("elsewhere", {frame_ref: m.frame_ref}); }`, nil)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeUndeclaredEdge)
		if !ok {
			t.Fatal("no PV102 diagnostic")
		}
		if d.Severity != script.SeverityError {
			t.Errorf("PV102 severity = %v", d.Severity)
		}
	})

	t.Run("declared but unreferenced service warns", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { frame_done(); }`, []string{"pose_detector"})
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeUnusedService)
		if !ok {
			t.Fatal("no PV103 diagnostic")
		}
		if d.Severity != script.SeverityWarning {
			t.Errorf("PV103 severity = %v", d.Severity)
		}
	})

	t.Run("dynamic service targets suppress the unused warning", func(t *testing.T) {
		cfg := twoStage(`
			var svc = "pose_detector";
			function event_received(m) { call_service(svc, {frame_ref: m.frame_ref}); frame_done(); }`,
			[]string{"pose_detector"})
		if d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeUnusedService); ok {
			t.Errorf("unexpected PV103 with dynamic targets: %v", d)
		}
	})

	t.Run("declared but untargeted edge warns", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { frame_done(); }`, nil)
		cfg.Modules[1].Next = nil
		cfg.Modules[0].Source = `function event_received(m) { frame_done(); }`
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeUnusedEdge)
		if !ok {
			t.Fatal("no PV104 diagnostic")
		}
		if d.Severity != script.SeverityWarning || d.Module != "streamer" {
			t.Errorf("bad diagnostic: %+v", d)
		}
	})

	t.Run("reachable module without event_received is an error", func(t *testing.T) {
		cfg := twoStage(`function init() { log("sink up"); }`, nil)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), "PV008")
		if !ok {
			t.Fatal("no PV008 diagnostic")
		}
		if d.Module != "sink" || d.Severity != script.SeverityError {
			t.Errorf("bad diagnostic: %+v", d)
		}
	})

	t.Run("unreachable module without event_received passes", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { frame_done(); }`, nil)
		cfg.Modules = append(cfg.Modules, core.ModuleConfig{
			Name:   "helper",
			Source: `function init() { log("side helper"); }`,
		})
		if d, ok := findDiag(core.AnalyzePipeline(&cfg), "PV008"); ok {
			t.Errorf("unexpected PV008 on unreachable module: %v", d)
		}
	})

	t.Run("script-level errors are attributed to their module", func(t *testing.T) {
		cfg := twoStage(`function event_received(m) { frame_done(); ghost(m); }`, nil)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), "PV001")
		if !ok {
			t.Fatal("no PV001 diagnostic")
		}
		if d.Module != "sink" || !strings.Contains(d.String(), "module sink") {
			t.Errorf("bad attribution: %q", d.String())
		}
	})
}

// TestLaunchRejectsAnalysisErrors proves the deploy gate: Launch refuses a
// structurally valid pipeline whose module calls an undeclared service, and
// the error carries positioned diagnostics.
func TestLaunchRejectsAnalysisErrors(t *testing.T) {
	c := homeCluster(t)
	cfg := twoStage(`function event_received(m) { call_service("pose_detector", {frame_ref: m.frame_ref}); frame_done(); }`, nil)
	_, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err == nil {
		t.Fatal("Launch accepted a module calling an undeclared service")
	}
	var ae *core.AnalysisError
	if !errors.As(err, &ae) {
		t.Fatalf("error type %T, want *core.AnalysisError: %v", err, err)
	}
	if len(ae.Diagnostics) == 0 || ae.Diagnostics[0].Code != core.CodeUndeclaredService {
		t.Fatalf("diagnostics = %+v", ae.Diagnostics)
	}
	if ae.Diagnostics[0].Pos.Line == 0 {
		t.Error("diagnostic lost its position")
	}
	if !strings.Contains(err.Error(), "PV101") {
		t.Errorf("error text lacks the code: %v", err)
	}
}

// TestLaunchCountsAnalysisWarnings: warning-only findings do not block a
// launch; they bump the analysis meter instead.
func TestLaunchCountsAnalysisWarnings(t *testing.T) {
	c := homeCluster(t)
	cfg := apps.FitnessConfig("warnfit", 15, "squat")
	// An unused variable produces a PV003 warning, nothing more.
	cfg.Modules[0].Source = `
		var debug_mode = false;
		function event_received(message) {
			call_module("pose_detection", {
				frame_ref: message.frame_ref,
				captured_ms: message.captured_ms,
				seq: message.seq
			});
		}
	`
	p, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("warning-only pipeline rejected: %v", err)
	}
	defer p.Close()
	if got := c.Metrics().Meter("analysis.warnfit.warnings").Count(); got == 0 {
		t.Error("analysis warnings meter not marked")
	}
}

// TestBuiltinAppsAnalyzeClean is the golden corpus for the built-in
// applications: every shipped pipeline must pass the analyzer with zero
// error-severity diagnostics, and every diagnostic, warnings included, and
// every replication verdict must match the "builtin apps" block of the
// repository's testdata/pipevet.golden.
func TestBuiltinAppsAnalyzeClean(t *testing.T) {
	cfgs := []core.PipelineConfig{
		apps.FitnessConfig("fitness", 20, "squat"),
		apps.GestureConfig("gesture", 20, "wave"),
		apps.FallConfig("fall", 15),
	}
	var got strings.Builder
	for _, cfg := range cfgs {
		fmt.Fprintf(&got, "app %s\n", cfg.Name)
		for _, d := range core.AnalyzePipeline(&cfg) {
			if d.Severity == script.SeverityError {
				t.Errorf("%s: %s", cfg.Name, d)
			}
			fmt.Fprintln(&got, d)
		}
		for _, m := range cfg.Modules {
			fmt.Fprintf(&got, "module %s: %s\n", m.Name, script.Analyze(m.Source, script.Options{}).Facts.Verdict())
		}
	}
	data, err := os.ReadFile("../../testdata/pipevet.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(string(data), "== builtin apps\n")
	if i := strings.Index(want, "\n== "); i >= 0 {
		want = want[:i+1]
	}
	if !ok || got.String() != want {
		t.Errorf("pipevet output for the built-in apps differs from testdata/pipevet.golden; got:\n%s", got.String())
	}
}
