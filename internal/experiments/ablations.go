package experiments

import (
	"context"
	"fmt"
	"time"

	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/frame"
	"videopipe/internal/services"
)

// Ablations for the design choices DESIGN.md calls out. Each isolates one
// mechanism of the system and measures its contribution.

// QueueingPoint is one credit setting's outcome.
type QueueingPoint struct {
	Credits int
	FPS     float64
	E2EMean time.Duration
}

// AblationQueueing contrasts the queue-free credit discipline (§2.3)
// against deeper admission (more credits ≈ bounded queues) at a 60 eps camera,
// faster than one credit carries. Expected shape: FPS rises until the services
// saturate while end-to-end latency keeps growing — queueing buys latency.
func AblationQueueing(o Options, creditSettings []int) ([]QueueingPoint, error) {
	reg, err := o.registry()
	if err != nil {
		return nil, err
	}
	if creditSettings == nil {
		creditSettings = []int{1, 2, 4, 8}
	}
	var out []QueueingPoint
	for _, credits := range creditSettings {
		res, err := runFitness(reg, apps.HomeClusterSpec(),
			core.CoLocatePlanner{Credits: credits},
			fmt.Sprintf("abq%d", credits), 60, o.scene(), o.duration())
		if err != nil {
			return nil, fmt.Errorf("experiments: queueing ablation credits=%d: %w", credits, err)
		}
		out = append(out, QueueingPoint{Credits: credits, FPS: res.FPS, E2EMean: res.E2E.Mean})
	}
	return out, nil
}

// CodecResult contrasts compressed vs raw frame transfer between devices.
type CodecResult struct {
	JPEGFPS float64
	JPEGE2E time.Duration
	RawFPS  float64
	RawE2E  time.Duration
}

// AblationCodec measures what JPEG compression buys on the Wi-Fi hops: raw
// RGBA frames are ~20x larger, so transfer serialization dominates.
func AblationCodec(o Options) (CodecResult, error) {
	reg, err := o.registry()
	if err != nil {
		return CodecResult{}, err
	}

	run := func(codec frame.Codec, name string) (core.RunResult, error) {
		cluster, err := core.NewCluster(apps.HomeClusterSpec(), reg)
		if err != nil {
			return core.RunResult{}, err
		}
		defer cluster.Close()
		if codec != nil {
			cluster.SetCodec(codec)
		}
		p, err := cluster.Launch(apps.FitnessConfig(name, 20, o.scene()), core.CoLocatePlanner{})
		if err != nil {
			return core.RunResult{}, err
		}
		return p.Run(context.Background(), o.duration())
	}

	jpegRes, err := run(nil, "abcjpeg")
	if err != nil {
		return CodecResult{}, fmt.Errorf("experiments: codec ablation jpeg: %w", err)
	}
	rawRes, err := run(frame.RawCodec{}, "abcraw")
	if err != nil {
		return CodecResult{}, fmt.Errorf("experiments: codec ablation raw: %w", err)
	}
	return CodecResult{
		JPEGFPS: jpegRes.FPS, JPEGE2E: jpegRes.E2E.Mean,
		RawFPS: rawRes.FPS, RawE2E: rawRes.E2E.Mean,
	}, nil
}

// BrokerResult contrasts direct module-to-module transfer against routing
// frames through a broker hop.
type BrokerResult struct {
	DirectFPS float64
	DirectE2E time.Duration
	BrokerFPS float64
	BrokerE2E time.Duration
}

// AblationBroker quantifies the paper's §3.2 argument against brokered
// messaging (Kafka/RabbitMQ): the same fitness pipeline, but with frames
// relayed through a broker module on a fourth device between the phone and
// the desktop — one extra network traversal per frame.
func AblationBroker(o Options) (BrokerResult, error) {
	reg, err := o.registry()
	if err != nil {
		return BrokerResult{}, err
	}

	direct, err := runFitness(reg, apps.HomeClusterSpec(), core.CoLocatePlanner{}, "abbdirect", 20, o.scene(), o.duration())
	if err != nil {
		return BrokerResult{}, fmt.Errorf("experiments: broker ablation direct: %w", err)
	}

	// Brokered: insert a relay module pinned to a separate broker host.
	spec := apps.HomeClusterSpec()
	spec.Devices = append(spec.Devices, device.Config{Name: "brokerhost", Class: device.Laptop})
	cluster, err := core.NewCluster(spec, reg)
	if err != nil {
		return BrokerResult{}, err
	}
	defer cluster.Close()

	cfg := apps.FitnessConfig("abbbroker", 20, o.scene())
	// Rewire: video_streaming -> broker -> pose_detection.
	for i := range cfg.Modules {
		if cfg.Modules[i].Name == "video_streaming" {
			cfg.Modules[i].Next = []string{"broker"}
			cfg.Modules[i].Source = brokeredStreamingSrc
		}
	}
	cfg.Modules = append(cfg.Modules, core.ModuleConfig{
		Name:   "broker",
		Source: brokerRelaySrc,
		Next:   []string{"pose_detection"},
		Device: "brokerhost",
	})

	p, err := cluster.Launch(cfg, core.CoLocatePlanner{})
	if err != nil {
		return BrokerResult{}, err
	}
	brokered, err := p.Run(context.Background(), o.duration())
	if err != nil {
		return BrokerResult{}, fmt.Errorf("experiments: broker ablation brokered: %w", err)
	}
	return BrokerResult{
		DirectFPS: direct.FPS, DirectE2E: direct.E2E.Mean,
		BrokerFPS: brokered.FPS, BrokerE2E: brokered.E2E.Mean,
	}, nil
}

const brokeredStreamingSrc = `
	function event_received(message) {
		call_module("broker", {
			frame_ref: message.frame_ref,
			captured_ms: message.captured_ms,
			seq: message.seq
		});
	}
`

const brokerRelaySrc = `
	function event_received(message) {
		call_module("pose_detection", {
			frame_ref: message.frame_ref,
			captured_ms: message.captured_ms,
			seq: message.seq
		});
	}
`

// WorkersPoint is one worker-count setting's outcome under shared load.
type WorkersPoint struct {
	Workers   int
	Fitness   float64
	Gesture   float64
	Aggregate float64
}

// AblationWorkers sweeps the pose container's internal concurrency with
// two pipelines sharing it at 20 FPS each — the knob behind Table 2's
// shared-column saturation.
func AblationWorkers(o Options, workerSettings []int) ([]WorkersPoint, error) {
	if workerSettings == nil {
		workerSettings = []int{1, 2, 4}
	}
	var out []WorkersPoint
	for _, w := range workerSettings {
		opts := services.DefaultOptions()
		opts.PoseWorkers = w
		reg, err := services.NewStandardRegistry(opts)
		if err != nil {
			return nil, err
		}
		a, b, err := runShared(reg, 20, o)
		if err != nil {
			return nil, fmt.Errorf("experiments: workers ablation w=%d: %w", w, err)
		}
		out = append(out, WorkersPoint{Workers: w, Fitness: a, Gesture: b, Aggregate: a + b})
	}
	return out, nil
}
