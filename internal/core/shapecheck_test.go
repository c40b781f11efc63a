package core_test

import (
	"errors"
	"strings"
	"testing"

	"videopipe/internal/core"
	"videopipe/internal/script"
)

// shapePair builds a minimal streamer -> sink pipeline from the two module
// sources, for exercising the pipetype edge-contract checks.
func shapePair(streamerSource, sinkSource string) core.PipelineConfig {
	return core.PipelineConfig{
		Name: "shapetest",
		Modules: []core.ModuleConfig{
			{Name: "streamer", Source: streamerSource, Next: []string{"sink"}},
			{Name: "sink", Source: sinkSource},
		},
		Source: core.SourceConfig{Device: "phone", FirstModule: "streamer", FPS: 15, Width: 64, Height: 48},
	}
}

func TestShapeCheckEdgeContracts(t *testing.T) {
	t.Run("misspelled payload field is a positioned PV015 error", func(t *testing.T) {
		// The producer misspells "pose" as "pse"; the consumer's read of
		// m.pose can never be satisfied.
		cfg := shapePair(
			`function event_received(m) { call_module("sink", {pse: m.seq, frame_ref: m.frame_ref}); }`,
			`function event_received(m) { log(m.pose); frame_done(); }`,
		)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeMissingField)
		if !ok {
			t.Fatal("no PV015 diagnostic")
		}
		if d.Severity != script.SeverityError || d.Module != "sink" {
			t.Errorf("bad diagnostic: %+v", d)
		}
		if d.Pos.Line != 1 || d.Pos.Col == 0 {
			t.Errorf("missing position: %+v", d.Pos)
		}
		if !strings.Contains(d.Message, `"pose"`) {
			t.Errorf("message does not name the field: %s", d.Message)
		}
	})

	t.Run("kind mismatch is a PV016 error", func(t *testing.T) {
		cfg := shapePair(
			`function event_received(m) { call_module("sink", {count: "high", frame_ref: m.frame_ref}); }`,
			`function event_received(m) { metric("twice", m.count * 2); frame_done(); }`,
		)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeKindMismatch)
		if !ok {
			t.Fatal("no PV016 diagnostic")
		}
		if d.Severity != script.SeverityError || d.Module != "sink" {
			t.Errorf("bad diagnostic: %+v", d)
		}
	})

	t.Run("dead field is a PV017 warning at the emit site", func(t *testing.T) {
		cfg := shapePair(
			`function event_received(m) { call_module("sink", {seq: m.seq, extra: 1, frame_ref: m.frame_ref}); }`,
			`function event_received(m) { metric("seq", m.seq); frame_done(); }`,
		)
		d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeDeadField)
		if !ok {
			t.Fatal("no PV017 diagnostic")
		}
		if d.Severity != script.SeverityWarning || d.Module != "streamer" {
			t.Errorf("bad diagnostic: %+v", d)
		}
		if d.Pos.Line == 0 {
			t.Errorf("PV017 lost the emit position: %+v", d)
		}
		if !strings.Contains(d.Message, `"extra"`) {
			t.Errorf("message does not name the field: %s", d.Message)
		}
	})

	t.Run("entry module reads of runtime-injected fields are clean", func(t *testing.T) {
		cfg := shapePair(
			`function event_received(m) { metric("lag", now_ms() - m.captured_ms); call_module("sink", {seq: m.seq, frame_ref: m.frame_ref}); }`,
			`function event_received(m) { metric("seq", m.seq); frame_done(); }`,
		)
		for _, d := range core.AnalyzePipeline(&cfg) {
			if d.Severity == script.SeverityError {
				t.Errorf("unexpected error: %s", d)
			}
		}
	})

	t.Run("silent producer suppresses consumer-side errors", func(t *testing.T) {
		// A producer with zero call_module sites (a sabotage swap, say)
		// means no events ever reach the sink; its reads must not error.
		cfg := shapePair(
			`function event_received(m) { frame_done(); }`,
			`function event_received(m) { log(m.anything_at_all); frame_done(); }`,
		)
		if d, ok := findDiag(core.AnalyzePipeline(&cfg), core.CodeMissingField); ok {
			t.Errorf("PV015 on a silent edge: %+v", d)
		}
	})

	t.Run("dynamic payload degrades to PV018, never PV015", func(t *testing.T) {
		cfg := shapePair(
			`function event_received(m) { var p = {frame_ref: m.frame_ref}; p[m.key] = 1; call_module("sink", p); }`,
			`function event_received(m) { log(m.whatever); frame_done(); }`,
		)
		diags := core.AnalyzePipeline(&cfg)
		if d, ok := findDiag(diags, core.CodeMissingField); ok {
			t.Errorf("PV015 on a top-degraded edge: %+v", d)
		}
		if _, ok := findDiag(diags, script.CodeShapeUnknown); !ok {
			t.Error("no PV018 warning for the dynamically built payload")
		}
	})
}

// TestLaunchRejectsShapeErrors: the edge-contract checks gate deployment
// like every other pipevet error.
func TestLaunchRejectsShapeErrors(t *testing.T) {
	c := homeCluster(t)
	cfg := shapePair(
		`function event_received(m) { call_module("sink", {valu: m.seq, frame_ref: m.frame_ref}); }`,
		`function event_received(m) { metric("v", m.value); frame_done(); }`,
	)
	_, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err == nil {
		t.Fatal("Launch accepted a pipeline with a broken edge contract")
	}
	var ae *core.AnalysisError
	if !errors.As(err, &ae) {
		t.Fatalf("error type %T, want *core.AnalysisError: %v", err, err)
	}
	if !strings.Contains(err.Error(), "PV015") {
		t.Errorf("error text lacks PV015: %v", err)
	}
}

// TestUpdateModuleShapeGate: hot swaps re-run the edge-contract checks —
// a swap that breaks a downstream read is rejected, while swaps that keep
// the contract (including zero-emission sabotage sources, which the
// governance tests rely on) go through.
func TestUpdateModuleShapeGate(t *testing.T) {
	c := homeCluster(t)
	cfg := shapePair(
		`function event_received(m) { call_module("sink", {value: m.seq, frame_ref: m.frame_ref}); }`,
		`function event_received(m) { metric("v", m.value); frame_done(); }`,
	)
	p, err := c.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer p.Close()

	// Dropping the field the sink reads must be rejected with PV015.
	err = p.UpdateModule("streamer",
		`function event_received(m) { call_module("sink", {other: m.seq, frame_ref: m.frame_ref}); }`)
	if err == nil {
		t.Fatal("UpdateModule accepted a swap that breaks the sink's contract")
	}
	if !strings.Contains(err.Error(), "PV015") {
		t.Errorf("rejection lacks PV015: %v", err)
	}

	// A compatible replacement passes. (Each pipeline takes one swap here:
	// a module holds at most one pending update until events drain it.)
	if err := p.UpdateModule("streamer",
		`function event_received(m) { call_module("sink", {value: m.seq + 1, frame_ref: m.frame_ref}); }`); err != nil {
		t.Fatalf("compatible swap rejected: %v", err)
	}

	// A zero-emission source (chaos sabotage) silences the edge and passes.
	cfg2 := cfg
	cfg2.Name = "shapetest2"
	p2, err := c.Launch(cfg2, core.CoLocatePlanner{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	defer p2.Close()
	if err := p2.UpdateModule("streamer",
		`function event_received(m) { frame_done(); }`); err != nil {
		t.Fatalf("silent swap rejected: %v", err)
	}
}
