package main

import (
	"fmt"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/experiments"
	"videopipe/internal/flood"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// workload is one named open-loop traffic shape: the cluster it runs on,
// the pipelines it launches, and the arrival schedule it is driven with.
// Names are frozen — later issues cite them.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	why string
	// lanes is how many pipelines share the cluster.
	lanes int
	// rate is the offered rate per lane in events per second.
	rate float64
	// process is the inter-arrival model of every lane.
	process flood.Process
	// deadline is the latency limit a frame must meet to count as goodput.
	deadline time.Duration
	// tune runs core.Tuner (default config, seeded from the run seed)
	// alongside injection.
	tune bool
	// displayShare is the minimum share of completions that must occur at
	// the "display" module (pose workloads); zero skips the check.
	displayShare float64
	spec         func() core.ClusterSpec
	registry     func() (*services.Registry, error)
	pipeline     func(name string) core.PipelineConfig
	// chain describes one frame's path for the layer probes.
	chain chain
}

// chain is the static shape of a frame's path through a workload, used by
// the layer probes to replay it through the public API and by the latency
// budget to sum the spans along it.
type chain struct {
	// hops is the number of device-to-device transfers (encode, push,
	// link, decode) on the path to the completing module.
	hops int
	// services is whether the path calls the standard vision services.
	services bool
}

// Sink scripts that assert on their input: a wrong payload throws, the
// module's error meter moves, the frame is abandoned, and the output
// checks fail the run.
const (
	// scriptedCheckedSinkSrc is experiments' scripted sink plus a check
	// that burn_b really ran its 4000 iterations: sum(3i, i<4000).
	scriptedCheckedSinkSrc = `
	function event_received(message) {
		if (message.acc != 23994000) {
			throw "script_heavy: upstream acc is " + message.acc;
		}
		var acc = 0;
		for (var i = 0; i < 4000; i++) {
			acc = acc + i * 3;
		}
		frame_done();
	}
`

	relayStageSrc = `
	function event_received(message) {
		call_module("%s", {frame_ref: message.frame_ref, seq: message.seq});
	}
`

	relaySinkSrc = `
	var last_seq = -1;
	function event_received(message) {
		if (message.seq <= last_seq) {
			throw "relay_vga: seq " + message.seq + " arrived after " + last_seq;
		}
		last_seq = message.seq;
		frame_done();
	}
`
)

// nominalFPS satisfies config validation; the harness injects frames
// itself through Pipeline.Offer and never runs the paced source.
const nominalFPS = 10

func standardRegistry() (*services.Registry, error) {
	return services.NewStandardRegistry(services.DefaultOptions())
}

func fitnessPipeline(name string) core.PipelineConfig {
	return apps.FitnessConfig(name, nominalFPS, "squat")
}

// scriptedScenario is the repo's existing scripted flood mix; the lookup
// cannot fail for a mix constant.
func scriptedScenario() experiments.FloodScenario {
	sc, err := experiments.FloodScenarioFor(experiments.MixScripted)
	if err != nil {
		panic(err)
	}
	return sc
}

func scriptedPipeline(name string) core.PipelineConfig {
	cfg := scriptedScenario().Pipeline(name, 0)
	sink := cfg.Sinks()[0]
	for i := range cfg.Modules {
		if cfg.Modules[i].Name == sink {
			cfg.Modules[i].Source = scriptedCheckedSinkSrc
		}
	}
	return cfg
}

func relayPipeline(name string) core.PipelineConfig {
	return core.PipelineConfig{
		Name: name,
		Modules: []core.ModuleConfig{
			{Name: "relay_a", Source: fmt.Sprintf(relayStageSrc, "relay_b"), Next: []string{"relay_b"}, Device: "phone"},
			{Name: "relay_b", Source: fmt.Sprintf(relayStageSrc, "relay_c"), Next: []string{"relay_c"}, Device: "desktop"},
			{Name: "relay_c", Source: relaySinkSrc, Device: "tv"},
		},
		Source: core.SourceConfig{
			Device:      "phone",
			FirstModule: "relay_a",
			FPS:         nominalFPS,
			Width:       640,
			Height:      480,
			Scene:       "squat",
			RepRate:     0.5,
		},
	}
}

func relayClusterSpec() core.ClusterSpec {
	return core.ClusterSpec{
		Devices: []device.Config{
			{Name: "phone", Class: device.Phone},
			{Name: "desktop", Class: device.Desktop},
			{Name: "tv", Class: device.TV},
		},
		DefaultLink: netsim.WiFi,
	}
}

func emptyRegistry() (*services.Registry, error) { return services.NewRegistry(), nil }

// workloads lists the four workloads in reporting order.
func workloads() []workload {
	return []workload{
		{
			name:         "pose_steady",
			why:          "one fitness pipeline at a camera's periodic 10 eps: the paper's headline latency, ~85% simulated service and link time",
			lanes:        1,
			rate:         10,
			process:      flood.Uniform,
			deadline:     400 * time.Millisecond,
			displayShare: 0.9,
			spec:         apps.HomeClusterSpec,
			registry:     standardRegistry,
			pipeline:     fitnessPipeline,
			chain:        chain{hops: 2, services: true},
		},
		{
			name:         "pose_surge",
			why:          "four fitness pipelines at Poisson 8 eps each, tuner on: bursts are shed at the source, the shared pose pool queues and is scaled, each lane's module loop serialises",
			lanes:        4,
			rate:         8,
			process:      flood.Poisson,
			deadline:     400 * time.Millisecond,
			tune:         true,
			displayShare: 0.9,
			spec:         apps.HomeClusterSpec,
			registry:     standardRegistry,
			pipeline:     fitnessPipeline,
			chain:        chain{hops: 2, services: true},
		},
		{
			name:     "script_heavy",
			why:      "three 4000-iteration PipeScript stages at 30 eps, no services: the interpreter does nearly all the work and all the allocation",
			lanes:    1,
			rate:     30,
			process:  flood.Uniform,
			deadline: 100 * time.Millisecond,
			spec:     func() core.ClusterSpec { return scriptedScenario().Spec },
			registry: emptyRegistry,
			pipeline: scriptedPipeline,
			chain:    chain{hops: 1},
		},
		{
			name:     "relay_vga",
			why:      "640x480 frames through three pass-through modules phone to desktop to tv at 15 eps: frame codec, wire PUSH/PULL and netsim do all the work",
			lanes:    1,
			rate:     15,
			process:  flood.Uniform,
			deadline: 100 * time.Millisecond,
			spec:     relayClusterSpec,
			registry: emptyRegistry,
			pipeline: relayPipeline,
			chain:    chain{hops: 2},
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
