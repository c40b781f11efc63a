package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"videopipe/internal/wire"
)

// minimalModule returns a valid module config for structural tests.
func minimalModule(name string, next ...string) ModuleConfig {
	return ModuleConfig{Name: name, Source: "function event_received(m) {}", Next: next}
}

func validConfig() PipelineConfig {
	return PipelineConfig{
		Name: "test",
		Modules: []ModuleConfig{
			minimalModule("a", "b"),
			minimalModule("b"),
		},
		Source: SourceConfig{Device: "phone", FirstModule: "a", FPS: 10, Width: 64, Height: 48},
	}
}

func TestValidateAcceptsGoodConfig(t *testing.T) {
	cfg := validConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PipelineConfig)
	}{
		{"missing name", func(c *PipelineConfig) { c.Name = "" }},
		{"no modules", func(c *PipelineConfig) { c.Modules = nil }},
		{"module without name", func(c *PipelineConfig) { c.Modules[0].Name = "" }},
		{"module without source", func(c *PipelineConfig) { c.Modules[0].Source = "" }},
		{"duplicate module", func(c *PipelineConfig) { c.Modules[1].Name = "a" }},
		{"unknown next", func(c *PipelineConfig) { c.Modules[0].Next = []string{"ghost"} }},
		{"self loop", func(c *PipelineConfig) { c.Modules[0].Next = []string{"a"} }},
		{"cycle", func(c *PipelineConfig) { c.Modules[1].Next = []string{"a"} }},
		{"missing first module", func(c *PipelineConfig) { c.Source.FirstModule = "" }},
		{"unknown first module", func(c *PipelineConfig) { c.Source.FirstModule = "ghost" }},
		{"missing source device", func(c *PipelineConfig) { c.Source.Device = "" }},
		{"zero fps", func(c *PipelineConfig) { c.Source.FPS = 0 }},
		{"bad dimensions", func(c *PipelineConfig) { c.Source.Width = 0 }},
	}
	for _, c := range cases {
		cfg := validConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", c.name)
		}
	}
}

func TestTopoOrder(t *testing.T) {
	cfg := PipelineConfig{
		Name: "t",
		Modules: []ModuleConfig{
			minimalModule("d"),
			minimalModule("b", "c"),
			minimalModule("a", "b"),
			minimalModule("c", "d"),
		},
	}
	order, err := cfg.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	if !reflect.DeepEqual(order, []string{"a", "b", "c", "d"}) {
		t.Errorf("TopoOrder = %v", order)
	}
}

func TestTopoOrderFanOut(t *testing.T) {
	cfg := PipelineConfig{
		Name: "t",
		Modules: []ModuleConfig{
			minimalModule("a", "b", "c"),
			minimalModule("b", "d"),
			minimalModule("c", "d"),
			minimalModule("d"),
		},
	}
	order, err := cfg.TopoOrder()
	if err != nil {
		t.Fatalf("TopoOrder: %v", err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["a"] > pos["b"] || pos["a"] > pos["c"] || pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Errorf("TopoOrder violates edges: %v", order)
	}
	if got := cfg.Sinks(); len(got) != 1 || got[0] != "d" {
		t.Errorf("Sinks = %v", got)
	}
}

const listing1Style = `
// The fitness pipeline, in the paper's Listing-1 dialect.
modules : [
	{ name: pose_detector_module
	  include ("./PoseDetectorModule.js")
	  service: ['pose_detector']
	  endpoint: ["bind#tcp://*:5861"]
	  next_module: activity_detector_module }
	{ name: activity_detector_module
	  include ("./ActivityDetectorModule.js")
	  service: ['activity_detector']
	  endpoint: ["bind#tcp://*:5862"]
	  next_module: [rep_counter_module, display_module] }
	{ name: rep_counter_module
	  include ("./RepCounterModule.js")
	  service: ['rep_counter']
	  endpoint: ["bind#tcp://*:5863"]
	  next_module: display_module }
	{ name: display_module
	  source: "function event_received(m) { frame_done(); }" }
]
source : { device: phone, module: pose_detector_module, fps: 20,
           width: 480, height: 360, scene: squat, rep_rate: 0.5 }
`

func fakeResolver(path string) (string, error) {
	return "function event_received(m) { /* from " + path + " */ }", nil
}

func TestParseListing1Config(t *testing.T) {
	cfg, err := ParseConfig("fitness", listing1Style, fakeResolver)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if cfg.Name != "fitness" {
		t.Errorf("Name = %q", cfg.Name)
	}
	if len(cfg.Modules) != 4 {
		t.Fatalf("modules = %d, want 4", len(cfg.Modules))
	}
	m0 := cfg.Modules[0]
	if m0.Name != "pose_detector_module" {
		t.Errorf("module 0 name = %q", m0.Name)
	}
	if !strings.Contains(m0.Source, "PoseDetectorModule.js") {
		t.Errorf("include not resolved: %q", m0.Source)
	}
	if len(m0.Services) != 1 || m0.Services[0] != "pose_detector" {
		t.Errorf("services = %v", m0.Services)
	}
	if m0.Endpoint != (wire.Endpoint{Mode: wire.Bind, Proto: "tcp", Host: "*", Port: 5861}) {
		t.Errorf("endpoint = %+v", m0.Endpoint)
	}
	if len(m0.Next) != 1 || m0.Next[0] != "activity_detector_module" {
		t.Errorf("next = %v", m0.Next)
	}
	if got := cfg.Modules[1].Next; !reflect.DeepEqual(got, []string{"rep_counter_module", "display_module"}) {
		t.Errorf("fan-out next = %v", got)
	}
	if cfg.Source.Device != "phone" || cfg.Source.FPS != 20 || cfg.Source.Scene != "squat" {
		t.Errorf("source = %+v", cfg.Source)
	}
	if cfg.Source.Width != 480 || cfg.Source.Height != 360 || cfg.Source.RepRate != 0.5 {
		t.Errorf("source geometry = %+v", cfg.Source)
	}
	if cfg.Source.FirstModule != "pose_detector_module" {
		t.Errorf("first module = %q", cfg.Source.FirstModule)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("parsed config invalid: %v", err)
	}
}

func TestParseConfigDefaultsFirstModule(t *testing.T) {
	text := `modules: [ { name: only, source: "function event_received(m){}" } ]`
	cfg, err := ParseConfig("p", text, nil)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if cfg.Source.FirstModule != "only" {
		t.Errorf("FirstModule = %q, want only", cfg.Source.FirstModule)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		``,                                   // no modules
		`modules: { }`,                       // not a list
		`modules: [ { source: "x" } ]`,       // module without name
		`modules: [ { name: a, bogus: 1 } ]`, // unknown field
		`modules: [ { name: a, endpoint: ["nonsense"] } ]`,              // bad endpoint
		`modules: [ { name: a include`,                                  // truncated
		`modules: [ { name: a, source: "x" } ] source: { fps: "fast" }`, // non-numeric fps
		`modules: [ { name: a, source: "x" } ] source: { warp: 9 }`,     // unknown source field
		`modules: [ { name: "unterminated`,                              // unterminated string
		`modules: [ { name: a, include("m.js") } ]`,                     // include without resolver
	}
	for i, text := range cases {
		if _, err := ParseConfig("p", text, nil); err == nil {
			t.Errorf("case %d: ParseConfig accepted %q", i, text)
		}
	}
}

func TestParseConfigCommentsAndCommas(t *testing.T) {
	text := `
	# hash comment
	modules: [
		{ name: a, source: "function event_received(m){}", next: b },
		{ name: b, source: "function event_received(m){}" },
	]
	`
	cfg, err := ParseConfig("p", text, nil)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if len(cfg.Modules) != 2 || cfg.Modules[0].Next[0] != "b" {
		t.Errorf("parsed %+v", cfg.Modules)
	}
}

func TestParseConfigNameOverride(t *testing.T) {
	text := `
	name: custom_name
	modules: [ { name: a, source: "x" } ]
	`
	cfg, err := ParseConfig("fallback", text, nil)
	if err != nil {
		t.Fatalf("ParseConfig: %v", err)
	}
	if cfg.Name != "custom_name" {
		t.Errorf("Name = %q", cfg.Name)
	}
}

func TestParseConfigResolverError(t *testing.T) {
	text := `modules: [ { name: a, include("missing.js") } ]`
	_, err := ParseConfig("p", text, func(string) (string, error) {
		return "", fmt.Errorf("no such file")
	})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("resolver error not propagated: %v", err)
	}
}
