// Package videopipe is a from-scratch reproduction of "VideoPipe: Building
// Video Stream Processing Pipelines at the Edge" (Salehe et al., Middleware
// Industry '19): a FaaS-container hybrid runtime that runs video-processing
// pipelines across heterogeneous home edge devices.
//
// Applications are DAGs of lightweight modules written in PipeScript (a
// JavaScript-like embedded language standing in for the paper's Duktape
// engine) that call stateless, container-style services — pose detection,
// activity recognition, rep counting, object detection, classification,
// display — for the heavy per-frame analytics. The deployment planner
// co-locates each module with the services it calls, eliminating remote
// API round-trips; frames travel between modules by reference id on a
// device and as compressed payloads across devices; and a queue-free,
// source-signalled flow-control protocol pushes all frame dropping to the
// camera.
//
// # Quick start
//
//	reg, _ := videopipe.NewStandardServices(videopipe.DefaultServiceOptions())
//	cluster, _ := videopipe.NewCluster(videopipe.HomeClusterSpec(), reg)
//	defer cluster.Close()
//
//	cfg := videopipe.FitnessApp("fitness", 20, "squat")
//	pipeline, _ := cluster.Launch(cfg, videopipe.CoLocatePlanner{})
//	result, _ := pipeline.Run(context.Background(), 5*time.Second)
//	fmt.Println(result)
//
// Or build a custom pipeline with the builder:
//
//	cfg, err := videopipe.NewPipelineBuilder("watch").
//		Module("ingest", ingestSrc).Next("analyze").
//		Module("analyze", analyzeSrc).Uses("pose_detector").
//		Source("phone", "ingest").FPS(15).Resolution(480, 360).
//		Scene("wave", 0.4).
//		Build()
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-reproduction results.
package videopipe

import (
	"videopipe/internal/apps"
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

// Core pipeline types.
type (
	// PipelineConfig describes an application: its module DAG and source.
	PipelineConfig = core.PipelineConfig
	// ModuleConfig describes one module of the DAG.
	ModuleConfig = core.ModuleConfig
	// SourceConfig describes the camera end of a pipeline.
	SourceConfig = core.SourceConfig
	// Pipeline is a deployed, runnable application.
	Pipeline = core.Pipeline
	// RunResult summarizes a pipeline run: FPS, drops, stage latencies.
	RunResult = core.RunResult

	// Cluster is a set of simulated edge devices with deployed services.
	Cluster = core.Cluster
	// ClusterSpec assembles devices, links and service placements.
	ClusterSpec = core.ClusterSpec
	// ServicePlacement puts one service pool on one device.
	ServicePlacement = core.ServicePlacement
	// DeviceConfig describes one edge device.
	DeviceConfig = device.Config

	// Planner decides module placement.
	Planner = core.Planner
	// CoLocatePlanner is VideoPipe's placement: modules live beside the
	// services they call, with pipelined (2-credit) flow control.
	CoLocatePlanner = core.CoLocatePlanner
	// BaselinePlanner is the EdgeEye-style comparison: all modules on one
	// device making synchronous remote API calls.
	BaselinePlanner = core.BaselinePlanner
	// PinnedPlanner follows explicit per-module device pins.
	PinnedPlanner = core.PinnedPlanner
	// LatencyAwarePlanner places modules by minimizing a per-frame latency
	// estimate from the cluster's link profiles (the paper's "scheduling"
	// future work).
	LatencyAwarePlanner = core.LatencyAwarePlanner
	// CostAwarePlanner weights serviceless-module placement and credit
	// selection by the pipecost static worst-case handler costs.
	CostAwarePlanner = core.CostAwarePlanner

	// Monitor observes pipelines and services: progress, stalls, module
	// errors, pool utilization (the paper's "monitoring" future work).
	Monitor = core.Monitor
	// Report is one monitoring observation.
	Report = core.Report

	// Diagnostic is one pipevet static-analysis finding.
	Diagnostic = core.Diagnostic
	// AnalysisError carries the error-severity diagnostics that made
	// Build or Launch reject a pipeline.
	AnalysisError = core.AnalysisError
	// Severity ranks analyzer diagnostics (errors reject, warnings log).
	Severity = script.Severity
	// CostReport is the pipecost result for one module: sound worst-case
	// instruction and allocation bounds per event handler.
	CostReport = script.CostReport
	// HandlerCost is one entry of a CostReport.
	HandlerCost = script.HandlerCost
	// Shape is one point of the pipetype event-shape lattice.
	Shape = script.Shape
	// ShapeReport is the pipetype result for one module: produced payload
	// shapes per call_module target and the consumed shape of
	// event_received.
	ShapeReport = script.ShapeReport
	// ShapeRecorder accumulates observed payload shapes per DAG edge
	// (debug-mode runtime validation of the static inference).
	ShapeRecorder = script.ShapeRecorder

	// ServiceRegistry catalogues deployable services.
	ServiceRegistry = services.Registry
	// ServiceOptions calibrates the standard services' simulated costs.
	ServiceOptions = services.StandardOptions

	// LinkProfile shapes a simulated network link.
	LinkProfile = netsim.LinkProfile
)

// Device classes.
const (
	Phone   = device.Phone
	Desktop = device.Desktop
	TV      = device.TV
	Laptop  = device.Laptop
	Watch   = device.Watch
	Fridge  = device.Fridge
)

// Diagnostic severities.
const (
	SeverityWarning = script.SeverityWarning
	SeverityError   = script.SeverityError
)

// Standard service names (paper §2.2's service catalogue).
const (
	PoseDetector       = services.PoseDetector
	ActivityClassifier = services.ActivityClassifier
	RepCounter         = services.RepCounter
	Display            = services.Display
	ObjectDetector     = services.ObjectDetector
	ImageClassifier    = services.ImageClassifier
	FaceDetector       = services.FaceDetector
	FallDetector       = services.FallDetector
)

// Link presets.
var (
	// WiFiLink models the paper's home 802.11 fabric.
	WiFiLink = netsim.WiFi
	// EthernetLink models a wired home segment.
	EthernetLink = netsim.Ethernet
	// WANLink models an uplink to a nearby cloud region.
	WANLink = netsim.WAN
)

// NewCluster builds a simulated home deployment: devices on a shaped
// network with services deployed per the spec.
func NewCluster(spec ClusterSpec, registry *ServiceRegistry) (*Cluster, error) {
	return core.NewCluster(spec, registry)
}

// NewStandardServices builds the paper's predefined service catalogue,
// training the activity classifier on a synthetic labelled corpus.
func NewStandardServices(opts ServiceOptions) (*ServiceRegistry, error) {
	return services.NewStandardRegistry(opts)
}

// DefaultServiceOptions returns the calibration used by the paper
// reproduction: pose detection ≈ 85 ms per frame on the reference desktop,
// matching the paper's ≈ 11 FPS pipeline ceiling.
func DefaultServiceOptions() ServiceOptions { return services.DefaultOptions() }

// ParseConfig parses a pipeline configuration in the paper's Listing-1
// dialect. resolve loads include()d module files; use FileResolver for
// on-disk configs.
func ParseConfig(name, text string, resolve core.Resolver) (*PipelineConfig, error) {
	return core.ParseConfig(name, text, resolve)
}

// FileResolver resolves config include() paths relative to dir.
func FileResolver(dir string) core.Resolver { return core.FileResolver(dir) }

// ParseClusterSpecText extracts the optional devices/services deployment
// sections from a configuration text; found is false when the config
// declares no deployment.
func ParseClusterSpecText(text string) (spec ClusterSpec, found bool, err error) {
	return core.ParseClusterSpec(text)
}

// HomeClusterSpec is the paper's testbed (§5.1): phone + desktop + TV on
// home Wi-Fi, vision services on the desktop, display service on the TV.
func HomeClusterSpec() ClusterSpec { return apps.HomeClusterSpec() }

// BaselineClusterSpec mirrors the paper's baseline (Fig. 5): same devices,
// all services on the desktop server.
func BaselineClusterSpec() ClusterSpec { return apps.BaselineClusterSpec() }

// FitnessApp builds the paper's fitness application (§4.1, Fig. 4): pose
// detection → activity recognition → rep counting → TV display. scene
// names the exercise the synthetic subject performs (squat, jumping_jack,
// overhead_press, lunge).
func FitnessApp(name string, fps float64, scene string) PipelineConfig {
	return apps.FitnessConfig(name, fps, scene)
}

// GestureApp builds the gesture-controlled IoT application (§4.2):
// clapping toggles a light, waving toggles a doorbell camera. scene is
// "clap" or "wave".
func GestureApp(name string, fps float64, scene string) PipelineConfig {
	return apps.GestureConfig(name, fps, scene)
}

// FallApp builds the fall-detection application (§4.3).
func FallApp(name string, fps float64) PipelineConfig {
	return apps.FallConfig(name, fps)
}

// NewMonitor creates a cluster monitor: pipeline progress and stall
// detection, module error counts and service-pool utilization.
func NewMonitor(c *Cluster) *Monitor { return core.NewMonitor(c) }

// AnalyzePipeline runs the pipevet static analyzer over every module of a
// pipeline: script-level checks (undefined identifiers, use before
// declaration, bad host-API calls, ...) plus config cross-checks (literal
// call_service/call_module targets vs declared services and edges, missing
// event_received on reachable modules). Launch and Build reject pipelines
// whose diagnostics include errors; this entry point exposes the full list,
// warnings included, for tooling such as `videopipe -lint`.
func AnalyzePipeline(cfg *PipelineConfig) []Diagnostic { return core.AnalyzePipeline(cfg) }

// AnalyzeScript runs only the script-level pipevet checks over a single
// PipeScript module source, without pipeline cross-checks.
func AnalyzeScript(src string) []Diagnostic { return core.AnalyzeModuleSource(src) }

// AnalyzeCost runs only the pipecost static cost analysis over a single
// PipeScript module source: a sound worst-case instruction bound and
// allocation bound per event handler, validated against the interpreter's
// per-event instruction counter (the `script.<module>.instructions`
// meter).
func AnalyzeCost(src string) CostReport { return script.AnalyzeCost(src) }

// AnalyzeShapes runs only the pipetype event-shape inference over a single
// PipeScript module source: the payload shape emitted to each call_module
// target and the fields (with expected kinds) its event_received handler
// reads. Pipeline Build/Launch cross-check these along every DAG edge
// (PV015–PV017); this entry point exposes one module's report for tooling.
func AnalyzeShapes(src string) ShapeReport { return script.AnalyzeShapes(src) }
