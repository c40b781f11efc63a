package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"videopipe/internal/apps"
	"videopipe/internal/core"
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

// TestCostAwarePlacementFlip is the acceptance demonstration: the same
// DAG places differently once the cost analysis reports a heavy handler.
// With a light crunch module, relay inherits the phone like the
// co-locating planner would; with a crunch handler whose counted loop
// outweighs the hop penalty, relay migrates to an idle device.
func TestCostAwarePlacementFlip(t *testing.T) {
	c := homeCluster(t)
	planner := core.CostAwarePlanner{}

	light := chainConfig(`function event_received(message) {
  call_module("relay", {seq: message.seq + 1});
}`)
	lightPlan, err := planner.Plan(&light, c)
	if err != nil {
		t.Fatalf("light plan: %v", err)
	}
	if got := lightPlan.Placement["relay"]; got != "phone" {
		t.Errorf("light pipeline: relay on %q, want phone (inherit predecessor)", got)
	}

	heavy := chainConfig(`function event_received(message) {
  var acc = 0;
  for (var i = 0; i < 60000; i++) {
    acc = acc + i;
  }
  call_module("relay", {seq: acc});
}`)
	heavyPlan, err := planner.Plan(&heavy, c)
	if err != nil {
		t.Fatalf("heavy plan: %v", err)
	}
	if got := heavyPlan.Placement["crunch"]; got != "phone" {
		t.Errorf("heavy pipeline: crunch on %q, want phone (placed before the load accumulates)", got)
	}
	if got := heavyPlan.Placement["relay"]; got == "phone" {
		t.Errorf("heavy pipeline: relay stayed on the loaded phone; placement %v", heavyPlan.Placement)
	}

	// The co-locating planner is blind to the difference: both variants
	// place identically under it.
	coLight, err := core.CoLocatePlanner{}.Plan(&light, c)
	if err != nil {
		t.Fatal(err)
	}
	coHeavy, err := core.CoLocatePlanner{}.Plan(&heavy, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coLight.Placement, coHeavy.Placement) {
		t.Errorf("co-locate planner should not distinguish the variants: %v vs %v",
			coLight.Placement, coHeavy.Placement)
	}
}

// TestCostAwareMatchesCoLocateOnApps: on the paper's real applications —
// light glue modules around DNN services — the cost signal must not
// disturb the co-locating placement that produces the paper's results.
func TestCostAwareMatchesCoLocateOnApps(t *testing.T) {
	c := homeCluster(t)
	for _, cfg := range []core.PipelineConfig{
		apps.FitnessConfig("fit", 10, "squat"),
		apps.FallConfig("fall", 10),
	} {
		co, err := core.CoLocatePlanner{}.Plan(&cfg, c)
		if err != nil {
			t.Fatalf("%s co-locate: %v", cfg.Name, err)
		}
		ca, err := core.CostAwarePlanner{}.Plan(&cfg, c)
		if err != nil {
			t.Fatalf("%s cost-aware: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(co.Placement, ca.Placement) {
			t.Errorf("%s: placement diverged:\nco-locate:  %v\ncost-aware: %v",
				cfg.Name, co.Placement, ca.Placement)
		}
	}
}

// TestCostAwareCredits: the in-flight allowance scales with the number of
// symbolic (call_service) stages, clamped to [2, 4].
func TestCostAwareCredits(t *testing.T) {
	c := homeCluster(t)

	svcStage := func(next string) string {
		body := `var r = call_service("pose_detector", {frame_ref: message.frame_ref});`
		if next != "" {
			return fmt.Sprintf("function event_received(message) { %s call_module(%q, {p: r.pose}); }", body, next)
		}
		return fmt.Sprintf("function event_received(message) { %s log(r.pose); frame_done(); }", body)
	}
	plain := `function event_received(message) { frame_done(); }`

	cases := []struct {
		name    string
		sources []string // module i forwards to i+1
		want    int
	}{
		{"no symbolic stages", []string{plain}, 2},
		{"one symbolic stage", []string{svcStage("")}, 2},
		{"three symbolic stages", []string{svcStage("m1"), svcStage("m2"), svcStage("")}, 4},
		{"five symbolic stages", []string{svcStage("m1"), svcStage("m2"), svcStage("m3"), svcStage("m4"), svcStage("")}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.PipelineConfig{
				Name:   "credits",
				Source: core.SourceConfig{Device: "phone", FirstModule: "m0", FPS: 10, Width: 64, Height: 48},
			}
			for i, src := range tc.sources {
				m := core.ModuleConfig{Name: fmt.Sprintf("m%d", i), Source: src}
				if i+1 < len(tc.sources) {
					m.Next = []string{fmt.Sprintf("m%d", i+1)}
				}
				cfg.Modules = append(cfg.Modules, m)
			}
			plan, err := core.CostAwarePlanner{}.Plan(&cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Credits != tc.want {
				t.Errorf("credits = %d, want %d", plan.Credits, tc.want)
			}

			// An explicit override still wins.
			fixed, err := core.CostAwarePlanner{Credits: 7}.Plan(&cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if fixed.Credits != 7 {
				t.Errorf("override credits = %d, want 7", fixed.Credits)
			}
		})
	}
}

// TestCostAwarePins: explicit device pins override the cost signal.
func TestCostAwarePins(t *testing.T) {
	c := homeCluster(t)
	cfg := chainConfig(`function event_received(message) {
  var acc = 0;
  for (var i = 0; i < 60000; i++) { acc = acc + i; }
  call_module("relay", {seq: acc});
}`)
	cfg.Modules[2].Device = "tv"
	plan, err := core.CostAwarePlanner{}.Plan(&cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Placement["relay"]; got != "tv" {
		t.Errorf("pinned relay on %q, want tv", got)
	}
}

// TestCostReports: the config-level accessor returns a report per module
// with the expected boundedness.
func TestCostReports(t *testing.T) {
	cfg := chainConfig(`function event_received(message) {
  while (message.seq > 0) { message.seq--; }
  call_module("relay", {seq: 0});
}`)
	reports := cfg.CostReports()
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	if h, ok := reports["ingest"].Handler("event_received"); !ok || !h.Bounded {
		t.Errorf("ingest should be bounded: %+v", h)
	}
	if h, ok := reports["crunch"].Handler("event_received"); !ok || h.Bounded {
		t.Errorf("crunch (while loop) should be unbounded: %+v", h)
	}
}

// TestPlannerPlacementsPinned pins both co-locating planners' placements
// over every shipped pipeline (the three apps, examples/configs/*.cfg) and
// the heavy serviceless chain where the two strategies part ways. The
// table was recorded before the planners were folded onto one rule chain.
func TestPlannerPlacementsPinned(t *testing.T) {
	c := homeCluster(t)
	cfgs := []core.PipelineConfig{
		apps.FitnessConfig("fit", 10, "squat"),
		apps.GestureConfig("gest", 10, "wave"),
		apps.FallConfig("fall", 10),
		chainConfig(`function event_received(message) {
  var acc = 0;
  for (var i = 0; i < 60000; i++) { acc = acc + i; }
  call_module("relay", {seq: acc});
}`),
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
		"fit/videopipe":        "credits=2 activity_recognition=desktop display=tv pose_detection=desktop rep_counter=desktop video_streaming=phone",
		"fit/cost-aware":       "credits=4 activity_recognition=desktop display=tv pose_detection=desktop rep_counter=desktop video_streaming=phone",
		"gest/videopipe":       "credits=2 gesture_recognition=desktop iot_control=desktop pose_detection=desktop video_streaming=phone",
		"gest/cost-aware":      "credits=3 gesture_recognition=desktop iot_control=desktop pose_detection=desktop video_streaming=phone",
		"fall/videopipe":       "credits=2 alert=desktop fall_monitor=desktop pose_detection=desktop video_streaming=phone",
		"fall/cost-aware":      "credits=3 alert=desktop fall_monitor=desktop pose_detection=desktop video_streaming=phone",
		"chain/videopipe":      "credits=2 crunch=phone ingest=phone relay=phone",
		"chain/cost-aware":     "credits=2 crunch=phone ingest=phone relay=desktop",
		"fallwatch/videopipe":  "credits=2 alert=desktop fall_monitor=desktop pose=desktop streamer=phone",
		"fallwatch/cost-aware": "credits=3 alert=desktop fall_monitor=desktop pose=desktop streamer=phone",
		"posewatch/videopipe":  "credits=2 streamer=phone watch=desktop",
		"posewatch/cost-aware": "credits=2 streamer=phone watch=desktop",
	}
	for i := range cfgs {
		cfg := &cfgs[i]
		for _, planner := range []core.Planner{core.CoLocatePlanner{}, core.CostAwarePlanner{}} {
			plan, err := planner.Plan(cfg, c)
			if err != nil {
				t.Fatalf("%s %s: %v", cfg.Name, planner.Name(), err)
			}
			mods := make([]string, 0, len(plan.Placement))
			for mod, dev := range plan.Placement {
				mods = append(mods, mod+"="+dev)
			}
			sort.Strings(mods)
			key := cfg.Name + "/" + planner.Name()
			got := fmt.Sprintf("credits=%d %s", plan.Credits, strings.Join(mods, " "))
			if w, ok := want[key]; !ok {
				t.Errorf("no pinned placement for %s; got %q", key, got)
			} else if got != w {
				t.Errorf("%s placement moved:\ngot  %s\nwant %s", key, got, w)
			}
		}
	}
}
