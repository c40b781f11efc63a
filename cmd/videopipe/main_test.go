package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeTestConfig(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := `
modules : [
	{ name: streamer
	  source: "function event_received(m) { call_module('watch', {frame_ref: m.frame_ref, captured_ms: m.captured_ms}); }"
	  next_module: watch }
	{ name: watch
	  include ("Watch.js")
	  service: ['pose_detector'] }
]
source : { device: phone, module: streamer, fps: 15,
           width: 480, height: 360, scene: squat, rep_rate: 0.5 }
`
	js := `
function event_received(message) {
	var r = call_service("pose_detector", {frame_ref: message.frame_ref});
	if (r.found) { metric("found", 1); }
	metric("lag_ms", now_ms() - message.captured_ms);
	frame_done();
}
`
	path := filepath.Join(dir, "app.cfg")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Watch.js"), []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWithConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full service registry")
	}
	path := writeTestConfig(t)
	if err := run(path, "videopipe", 1500*time.Millisecond, 0, false); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("", "videopipe", time.Second, 0, false); err == nil {
		t.Error("missing config accepted")
	}
	if err := run("/nonexistent/path.cfg", "videopipe", time.Second, 0, false); err == nil {
		t.Error("unreadable config accepted")
	}
	path := writeTestConfig(t)
	if err := run(path, "warpdrive", time.Second, 0, false); err == nil {
		t.Error("unknown planner accepted")
	}
}

func TestRunBaselinePlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full service registry")
	}
	path := writeTestConfig(t)
	if err := run(path, "baseline", time.Second, 10, true); err != nil {
		t.Fatalf("run baseline: %v", err)
	}
}

// writeBrokenConfig produces a config whose module calls a service it
// never declares — structurally valid, statically wrong.
func writeBrokenConfig(t *testing.T) string {
	t.Helper()
	cfg := `
modules : [
	{ name: watch
	  source: "function event_received(m) { call_service('pose_detector', {frame_ref: m.frame_ref}); frame_done(); }" }
]
source : { device: phone, module: watch, fps: 15, width: 480, height: 360 }
`
	path := filepath.Join(t.TempDir(), "broken.cfg")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintCleanConfig(t *testing.T) {
	path := writeTestConfig(t)
	var out, errOut strings.Builder
	if code := runLint(path, false, false, &out, &errOut); code != 0 {
		t.Fatalf("lint exit = %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("stdout = %q", out.String())
	}
}

// -lint says, per module, whether the runtime will replicate it and, if
// not, which state pins it to one context, and whether its local edges
// share payloads.
func TestLintReportsReplication(t *testing.T) {
	var out, errOut strings.Builder
	path := filepath.Join("..", "..", "examples", "configs", "posewatch.cfg")
	if code := runLint(path, false, false, &out, &errOut); code != 0 {
		t.Fatalf("lint exit = %d, stderr:\n%s", code, errOut.String())
	}
	for _, line := range []string{
		path + ": module streamer: replicable; shares payloads\n",
		path + `: module watch: single-context: writes global "seen" at 3:1; shares payloads` + "\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("stdout lacks %q:\n%s", line, out.String())
		}
	}
}

func TestLintBrokenConfig(t *testing.T) {
	path := writeBrokenConfig(t)
	var out, errOut strings.Builder
	if code := runLint(path, false, false, &out, &errOut); code != 1 {
		t.Fatalf("lint exit = %d, want 1", code)
	}
	msg := errOut.String()
	if !strings.Contains(msg, "PV101") || !strings.Contains(msg, "pose_detector") {
		t.Errorf("stderr lacks the PV101 diagnostic:\n%s", msg)
	}
	// Diagnostics are positioned: config path prefix plus line:col.
	if !strings.Contains(msg, path+": module watch: 1:") {
		t.Errorf("stderr lacks a positioned diagnostic:\n%s", msg)
	}
}

func TestLintErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := runLint("", false, false, &out, &errOut); code != 1 {
		t.Error("missing -config accepted")
	}
	if code := runLint("/nonexistent/path.cfg", false, false, &out, &errOut); code != 1 {
		t.Error("unreadable config accepted")
	}
	// Unparseable config text.
	bad := filepath.Join(t.TempDir(), "bad.cfg")
	if err := os.WriteFile(bad, []byte("modules : ["), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runLint(bad, false, false, &out, &errOut); code != 1 {
		t.Error("unparseable config accepted")
	}
}

// writeUnboundedConfig produces a deployable config whose module has a
// statically unbounded loop — a pipecost PV012 warning, not an error.
func writeUnboundedConfig(t *testing.T) string {
	t.Helper()
	cfg := `
modules : [
	{ name: watch
	  source: "function event_received(m) { while (m.seq > 0) { m.seq--; } frame_done(); }" }
]
source : { device: phone, module: watch, fps: 15, width: 480, height: 360 }
`
	path := filepath.Join(t.TempDir(), "unbounded.cfg")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLintJSON checks the machine-readable output: a JSON array on stdout
// carrying pipevet and pipecost findings, empty array for clean configs.
func TestLintJSON(t *testing.T) {
	path := writeUnboundedConfig(t)
	var out, errOut strings.Builder
	if code := runLint(path, true, false, &out, &errOut); code != 0 {
		t.Fatalf("lint exit = %d (warnings must not fail), stderr:\n%s", code, errOut.String())
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	found := false
	for _, d := range diags {
		if d["code"] == "PV012" {
			found = true
			if d["severity"] != "warning" {
				t.Errorf("PV012 severity = %v, want warning", d["severity"])
			}
			if d["module"] != "watch" {
				t.Errorf("PV012 module = %v, want watch", d["module"])
			}
			if d["file"] != path {
				t.Errorf("PV012 file = %v, want %s", d["file"], path)
			}
		}
	}
	if !found {
		t.Errorf("JSON output lacks the PV012 finding:\n%s", out.String())
	}

	// Clean config: an empty JSON array, nothing else on stdout.
	clean := writeTestConfig(t)
	out.Reset()
	errOut.Reset()
	if code := runLint(clean, true, false, &out, &errOut); code != 0 {
		t.Fatalf("clean lint exit = %d", code)
	}
	var empty []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &empty); err != nil {
		t.Fatalf("clean stdout is not JSON: %v\n%s", err, out.String())
	}
	if len(empty) != 0 {
		t.Errorf("clean config produced findings: %v", empty)
	}

	// Broken config: JSON still emitted, exit stays 1.
	broken := writeBrokenConfig(t)
	out.Reset()
	errOut.Reset()
	if code := runLint(broken, true, false, &out, &errOut); code != 1 {
		t.Fatalf("broken lint exit = %d, want 1", code)
	}
	var brokenDiags []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &brokenDiags); err != nil {
		t.Fatalf("broken stdout is not JSON: %v\n%s", err, out.String())
	}
	if len(brokenDiags) == 0 {
		t.Error("broken config produced no JSON findings")
	}
}

// writeShapeErrorConfig produces a config whose producer misspells a field
// the consumer reads — a pipetype PV015 error on the edge.
func writeShapeErrorConfig(t *testing.T) string {
	t.Helper()
	cfg := `
modules : [
	{ name: streamer
	  source: "function event_received(m) { call_module('sink', {valu: m.seq, frame_ref: m.frame_ref}); }"
	  next_module: sink }
	{ name: sink
	  source: "function event_received(m) { metric('v', m.value); frame_done(); }" }
]
source : { device: phone, module: streamer, fps: 15, width: 480, height: 360 }
`
	path := filepath.Join(t.TempDir(), "shapeerr.cfg")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLintWerror: warnings pass by default but fail under -Werror, and the
// JSON stream carries the pipetype codes.
func TestLintWerror(t *testing.T) {
	warny := writeUnboundedConfig(t)
	var out, errOut strings.Builder
	if code := runLint(warny, false, true, &out, &errOut); code != 1 {
		t.Fatalf("lint -Werror exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "-Werror") {
		t.Errorf("stderr does not mention -Werror:\n%s", errOut.String())
	}

	// A clean config still exits 0 under -Werror.
	clean := writeTestConfig(t)
	out.Reset()
	errOut.Reset()
	if code := runLint(clean, false, true, &out, &errOut); code != 0 {
		t.Fatalf("clean lint -Werror exit = %d, stderr:\n%s", code, errOut.String())
	}
}

// TestLintJSONShapeCodes: the pipetype edge-contract findings surface in
// the machine-readable output with their code and position.
func TestLintJSONShapeCodes(t *testing.T) {
	path := writeShapeErrorConfig(t)
	var out, errOut strings.Builder
	if code := runLint(path, true, false, &out, &errOut); code != 1 {
		t.Fatalf("lint exit = %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, out.String())
	}
	found := false
	for _, d := range diags {
		if d["code"] == "PV015" {
			found = true
			if d["severity"] != "error" {
				t.Errorf("PV015 severity = %v, want error", d["severity"])
			}
			if d["module"] != "sink" {
				t.Errorf("PV015 module = %v, want sink", d["module"])
			}
			if line, _ := d["line"].(float64); line == 0 {
				t.Errorf("PV015 lost its position: %v", d)
			}
		}
	}
	if !found {
		t.Errorf("JSON output lacks the PV015 finding:\n%s", out.String())
	}
}
