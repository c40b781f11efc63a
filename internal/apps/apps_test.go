package apps

import (
	"strings"
	"testing"

	"videopipe/internal/core"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

func TestConfigsValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  interface{ Validate() error }
	}{
		{"fitness", ptr(FitnessConfig("f", 20, "squat"))},
		{"gesture", ptr(GestureConfig("g", 15, "clap"))},
		{"fall", ptr(FallConfig("fa", 15))},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func ptr[T any](v T) *T { return &v }

func TestAllModuleScriptsParse(t *testing.T) {
	sources := map[string]string{
		"video_streaming":      VideoStreamingSrc,
		"pose_detection":       PoseDetectionSrc,
		"activity_recognition": ActivityRecognitionSrc,
		"rep_counter":          RepCounterSrc,
		"display":              DisplaySrc,
		"gesture_recognition":  GestureRecognitionSrc,
		"iot_control":          IoTControlSrc,
		"fall_monitor":         FallMonitorSrc,
		"alert":                AlertSrc,
	}
	for name, src := range sources {
		ctx := script.NewContext()
		// Stub the host API so top-level load succeeds standalone.
		for _, fn := range []string{"call_service", "call_module", "metric", "frame_done", "log", "now_ms"} {
			ctx.Bind(fn, func([]script.Value) (script.Value, error) { return nil, nil })
		}
		if err := ctx.Load(src); err != nil {
			t.Errorf("module %s does not load: %v", name, err)
			continue
		}
		if !ctx.Has("event_received") {
			t.Errorf("module %s missing event_received", name)
		}
	}
}

func TestFitnessTopology(t *testing.T) {
	cfg := FitnessConfig("f", 20, "squat")
	order, err := cfg.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	want := []string{"video_streaming", "pose_detection", "activity_recognition", "rep_counter", "display"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("order = %v, want %v", order, want)
	}
	if sinks := cfg.Sinks(); len(sinks) != 1 || sinks[0] != "display" {
		t.Errorf("sinks = %v", sinks)
	}
	used := cfg.ServicesUsed()
	for _, svc := range []string{services.PoseDetector, services.ActivityClassifier, services.RepCounter, services.Display} {
		found := false
		for _, u := range used {
			if u == svc {
				found = true
			}
		}
		if !found {
			t.Errorf("fitness does not declare service %s", svc)
		}
	}
}

func TestGestureAndFallTopologies(t *testing.T) {
	g := GestureConfig("g", 15, "wave")
	if sinks := g.Sinks(); len(sinks) != 1 || sinks[0] != "iot_control" {
		t.Errorf("gesture sinks = %v", sinks)
	}
	f := FallConfig("fa", 15)
	if sinks := f.Sinks(); len(sinks) != 1 || sinks[0] != "alert" {
		t.Errorf("fall sinks = %v", sinks)
	}
	if f.Source.Scene != "fall" {
		t.Errorf("fall scene = %q", f.Source.Scene)
	}
}

func TestClusterSpecsConsistency(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func() (devices int, placements int)
	}{
		{"home", func() (int, int) { s := HomeClusterSpec(); return len(s.Devices), len(s.Services) }},
		{"baseline", func() (int, int) { s := BaselineClusterSpec(); return len(s.Devices), len(s.Services) }},
	} {
		devices, placements := tc.spec()
		if devices != 3 {
			t.Errorf("%s: %d devices, want 3 (phone, desktop, tv)", tc.name, devices)
		}
		if placements != 5 {
			t.Errorf("%s: %d service placements, want 5", tc.name, placements)
		}
	}
	// Every placed service exists in the standard registry names.
	known := map[string]bool{
		services.PoseDetector: true, services.ActivityClassifier: true,
		services.RepCounter: true, services.Display: true,
		services.FallDetector: true, services.ObjectDetector: true,
		services.ImageClassifier: true, services.FaceDetector: true,
	}
	for _, sp := range append(HomeClusterSpec().Services, BaselineClusterSpec().Services...) {
		if !known[sp.Service] {
			t.Errorf("placement references unknown service %q", sp.Service)
		}
	}
}

func TestConfigsUseDistinctNames(t *testing.T) {
	a := FitnessConfig("one", 10, "squat")
	b := FitnessConfig("two", 10, "squat")
	if a.Name == b.Name {
		t.Error("names not distinct")
	}
}

// Which shipped modules the device runtime replicates, and for the rest
// what state pins them to one context — the verdict `videopipe -lint`
// prints and SpawnModule acts on. A module that starts keeping state (or
// stops) has to change its row here.
func TestModuleReplicationVerdicts(t *testing.T) {
	want := map[string]string{
		"fitness/video_streaming":      "replicable",
		"fitness/pose_detection":       "replicable",
		"fitness/activity_recognition": `single-context: writes global "window" at 2:3`,
		"fitness/rep_counter":          `single-context: writes global "state" at 2:3`,
		"fitness/display":              `single-context: writes global "frames" at 2:3`,
		"gesture/video_streaming":      "replicable",
		"gesture/pose_detection":       `single-context: writes global "last_seq" at 2:2`,
		"gesture/gesture_recognition":  `single-context: writes global "window" at 2:3`,
		"gesture/iot_control":          `single-context: writes global "light_on" at 2:3`,
		"fall/video_streaming":         "replicable",
		"fall/pose_detection":          `single-context: writes global "last_seq" at 2:2`,
		"fall/fall_monitor":            `single-context: writes global "state" at 2:3`,
		"fall/alert":                   `single-context: writes global "alerts" at 2:3`,
	}
	seen := 0
	for _, cfg := range []core.PipelineConfig{FitnessConfig("fitness", 20, "squat"), GestureConfig("gesture", 15, "clap"), FallConfig("fall", 15)} {
		for _, m := range cfg.Modules {
			seen++
			got := script.Analyze(m.Source, script.Options{}).Facts.Replication()
			if key := cfg.Name + "/" + m.Name; got != want[key] {
				t.Errorf("%s: %s, want %s", key, got, want[key])
			}
		}
	}
	if seen != len(want) {
		t.Errorf("%d shipped modules, table has %d", seen, len(want))
	}
}
