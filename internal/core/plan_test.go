package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// chainConfig builds phone-sourced ingest -> crunch -> relay, all
// serviceless, with the given crunch handler body.
func chainConfig(crunchBody string) core.PipelineConfig {
	fwd := func(next string) string {
		return fmt.Sprintf(`function event_received(message) { call_module(%q, {seq: message.seq}); }`, next)
	}
	return core.PipelineConfig{
		Name: "chain",
		Modules: []core.ModuleConfig{
			{Name: "ingest", Source: fwd("crunch"), Next: []string{"crunch"}},
			{Name: "crunch", Source: crunchBody, Next: []string{"relay"}},
			{Name: "relay", Source: `function event_received(message) { frame_done(); }`},
		},
		Source: core.SourceConfig{
			Device: "phone", FirstModule: "ingest", FPS: 10, Width: 64, Height: 48,
		},
	}
}

// heavyCrunch is a crunch handler with a long counted loop: per-frame
// script work, which placement does not weigh.
const heavyCrunch = `function event_received(message) {
  var acc = 0;
  for (var i = 0; i < 60000; i++) { acc = acc + i; }
  call_module("relay", {seq: acc});
}`

// diamondConfig builds a phone-sourced serviceless diamond: split fans out
// to a heavy left branch and a light right branch, and join has both as
// predecessors (left listed first).
func diamondConfig() core.PipelineConfig {
	return core.PipelineConfig{
		Name: "diamond",
		Modules: []core.ModuleConfig{
			{Name: "split", Next: []string{"left", "right"}, Source: `function event_received(message) {
  call_module("left", {seq: message.seq});
  call_module("right", {seq: message.seq});
}`},
			{Name: "left", Next: []string{"join"}, Source: `function event_received(message) {
  var acc = 0;
  for (var i = 0; i < 60000; i++) { acc = acc + i; }
  call_module("join", {seq: acc});
}`},
			{Name: "right", Next: []string{"join"}, Source: `function event_received(message) {
  call_module("join", {seq: message.seq});
}`},
			{Name: "join", Source: `function event_received(message) { frame_done(); }`},
		},
		Source: core.SourceConfig{
			Device: "phone", FirstModule: "split", FPS: 10, Width: 64, Height: 48,
		},
	}
}

// placementString renders a placement as sorted module=device pairs.
func placementString(placement map[string]string) string {
	mods := make([]string, 0, len(placement))
	for mod, dev := range placement {
		mods = append(mods, mod+"="+dev)
	}
	sort.Strings(mods)
	return strings.Join(mods, " ")
}

// TestPlannerPlacementsPinned pins every planner's placement over every
// shipped pipeline (the three apps, examples/configs/*.cfg), a serviceless
// chain with a heavy middle stage, and a serviceless diamond whose join
// has two placed predecessors (co-locate follows the first). A moved row
// is a behaviour change, not a test to update.
func TestPlannerPlacementsPinned(t *testing.T) {
	c := homeCluster(t)
	cfgs := []core.PipelineConfig{
		apps.FitnessConfig("fit", 10, "squat"),
		apps.GestureConfig("gest", 10, "wave"),
		apps.FallConfig("fall", 10),
		chainConfig(heavyCrunch),
		diamondConfig(),
	}
	paths, err := filepath.Glob("../../examples/configs/*.cfg")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example configs found (err=%v)", err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".cfg")
		cfg, err := core.ParseConfig(name, string(text), core.FileResolver(filepath.Dir(path)))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		cfgs = append(cfgs, *cfg)
	}

	want := map[string]string{
		"fit/videopipe":       "credits=2 activity_recognition=desktop display=tv pose_detection=desktop rep_counter=desktop video_streaming=phone",
		"fit/baseline":        "credits=1 activity_recognition=phone display=phone pose_detection=phone rep_counter=phone video_streaming=phone",
		"gest/videopipe":      "credits=2 gesture_recognition=desktop iot_control=desktop pose_detection=desktop video_streaming=phone",
		"gest/baseline":       "credits=1 gesture_recognition=phone iot_control=phone pose_detection=phone video_streaming=phone",
		"fall/videopipe":      "credits=2 alert=desktop fall_monitor=desktop pose_detection=desktop video_streaming=phone",
		"fall/baseline":       "credits=1 alert=phone fall_monitor=phone pose_detection=phone video_streaming=phone",
		"chain/videopipe":     "credits=2 crunch=phone ingest=phone relay=phone",
		"chain/baseline":      "credits=1 crunch=phone ingest=phone relay=phone",
		"diamond/videopipe":   "credits=2 join=phone left=phone right=phone split=phone",
		"diamond/baseline":    "credits=1 join=phone left=phone right=phone split=phone",
		"fallwatch/videopipe": "credits=2 alert=desktop fall_monitor=desktop pose=desktop streamer=phone",
		"fallwatch/baseline":  "credits=1 alert=phone fall_monitor=phone pose=phone streamer=phone",
		"posewatch/videopipe": "credits=2 streamer=phone watch=desktop",
		"posewatch/baseline":  "credits=1 streamer=phone watch=phone",
	}
	check := func(key, got string) {
		t.Helper()
		if w, ok := want[key]; !ok {
			t.Errorf("no pinned placement for %s; got %q", key, got)
		} else if got != w {
			t.Errorf("%s placement moved:\ngot  %s\nwant %s", key, got, w)
		}
	}
	planners := []core.Planner{core.CoLocatePlanner{}, core.BaselinePlanner{}}
	for i := range cfgs {
		cfg := &cfgs[i]
		for _, planner := range planners {
			plan, err := planner.Plan(cfg, c)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, planner.Name(), err)
			}
			check(cfg.Name+"/"+planner.Name(), fmt.Sprintf("credits=%d %s", plan.Credits, placementString(plan.Placement)))
		}
	}
}

// TestCoLocateServiceTieBreak: a module whose services are hosted on
// several devices goes to the device hosting the most of them, and a tie
// goes to the lexicographically first host, whatever order the module
// lists its services in.
func TestCoLocateServiceTieBreak(t *testing.T) {
	c, err := core.NewCluster(core.ClusterSpec{
		Devices: []device.Config{
			{Name: "alpha", Class: device.Desktop},
			{Name: "beta", Class: device.Desktop},
		},
		DefaultLink: netsim.WiFi,
		Services: []core.ServicePlacement{
			{Service: services.PoseDetector, Device: "beta"},
			{Service: services.ActivityClassifier, Device: "beta"},
			{Service: services.RepCounter, Device: "alpha"},
		},
	}, fastRegistry(t))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Close)

	cases := []struct {
		services []string
		want     string
	}{
		{[]string{services.PoseDetector, services.RepCounter}, "alpha"},
		{[]string{services.RepCounter, services.PoseDetector}, "alpha"},
		{[]string{services.RepCounter, services.PoseDetector, services.ActivityClassifier}, "beta"},
	}
	for _, tc := range cases {
		cfg := core.PipelineConfig{
			Name: "tie",
			Modules: []core.ModuleConfig{
				{Name: "ingest", Source: `function event_received(message) { call_module("m", {}); }`, Next: []string{"m"}},
				{Name: "m", Source: `function event_received(message) { frame_done(); }`, Services: tc.services},
			},
			Source: core.SourceConfig{Device: "alpha", FirstModule: "ingest", FPS: 10, Width: 64, Height: 48},
		}
		// Map iteration order varies between runs; plan repeatedly so a
		// tie that depended on it would show.
		for i := 0; i < 20; i++ {
			plan, err := core.CoLocatePlanner{}.Plan(&cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.Placement["m"]; got != tc.want {
				t.Fatalf("services %v: m on %q, want %q", tc.services, got, tc.want)
			}
		}
	}
}
