// Command videopipe deploys and runs a pipeline described by a
// Listing-1-style configuration file on a simulated home cluster (phone +
// desktop + TV on Wi-Fi with the standard services).
//
// Usage:
//
//	videopipe -config fitness.cfg
//	videopipe -config app.cfg -planner baseline -duration 10s -fps 30
//	videopipe -lint -config app.cfg
//
// The config dialect matches the paper's Listing 1; include() paths
// resolve relative to the config file. Run with -example to print a
// ready-to-use config instead of running one, or with -lint to run the
// pipevet static analyzer over a config without deploying it: every
// diagnostic is printed and the exit status is non-zero when any is an
// error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"videopipe"
	"videopipe/internal/script"
)

const exampleConfig = `// Example pipeline for the videopipe command.
// Save as app.cfg, put module code in PoseWatch.js next to it, then:
//   videopipe -config app.cfg
modules : [
	{ name: streamer
	  source: "function event_received(m) { call_module('watch', {frame_ref: m.frame_ref, captured_ms: m.captured_ms}); }"
	  next_module: watch }
	{ name: watch
	  include ("PoseWatch.js")
	  service: ['pose_detector'] }
]
source : { device: phone, module: streamer, fps: 15,
           width: 480, height: 360, scene: squat, rep_rate: 0.5 }
`

func main() {
	var (
		configPath = flag.String("config", "", "pipeline configuration file (Listing-1 dialect)")
		plannerArg = flag.String("planner", "videopipe", "deployment plan: videopipe|baseline|pinned|cost")
		duration   = flag.Duration("duration", 10*time.Second, "how long to run the pipeline")
		fps        = flag.Float64("fps", 0, "override the config's source frame rate")
		verbose    = flag.Bool("verbose", false, "print module log() output")
		example    = flag.Bool("example", false, "print an example config and exit")
		lint       = flag.Bool("lint", false, "statically analyze the config and exit (no deployment)")
		jsonOut    = flag.Bool("json", false, "with -lint, emit diagnostics as a JSON array on stdout")
		werror     = flag.Bool("Werror", false, "with -lint, treat warnings as errors (nonzero exit on any finding)")
	)
	flag.Parse()

	if *example {
		fmt.Print(exampleConfig)
		return
	}
	if *lint {
		os.Exit(runLint(*configPath, *jsonOut, *werror, os.Stdout, os.Stderr))
	}
	if err := run(*configPath, *plannerArg, *duration, *fps, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "videopipe:", err)
		os.Exit(1)
	}
}

func run(configPath, plannerArg string, duration time.Duration, fps float64, verbose bool) error {
	if configPath == "" {
		return fmt.Errorf("missing -config (use -example for a starting point)")
	}
	text, err := os.ReadFile(configPath)
	if err != nil {
		return err
	}
	name := strings.TrimSuffix(filepath.Base(configPath), filepath.Ext(configPath))
	cfg, err := videopipe.ParseConfig(name, string(text), videopipe.FileResolver(filepath.Dir(configPath)))
	if err != nil {
		return err
	}
	if fps > 0 {
		cfg.Source.FPS = fps
	}

	var planner videopipe.Planner
	switch plannerArg {
	case "videopipe":
		planner = videopipe.CoLocatePlanner{}
	case "baseline":
		planner = videopipe.BaselinePlanner{}
	case "pinned":
		planner = videopipe.PinnedPlanner{}
	case "cost":
		planner = videopipe.CostAwarePlanner{}
	default:
		return fmt.Errorf("unknown planner %q (videopipe|baseline|pinned|cost)", plannerArg)
	}

	fmt.Println("building standard services (training activity classifier)...")
	registry, err := videopipe.NewStandardServices(videopipe.DefaultServiceOptions())
	if err != nil {
		return err
	}

	spec := videopipe.HomeClusterSpec()
	if plannerArg == "baseline" {
		spec = videopipe.BaselineClusterSpec()
	}
	// The config may declare its own deployment (devices/services
	// sections); when present it overrides the default home cluster.
	if declared, found, err := videopipe.ParseClusterSpecText(string(text)); err != nil {
		return err
	} else if found {
		if len(declared.Devices) > 0 {
			spec.Devices = declared.Devices
		}
		if len(declared.Services) > 0 {
			spec.Services = declared.Services
		}
	}
	cluster, err := videopipe.NewCluster(spec, registry)
	if err != nil {
		return err
	}
	defer cluster.Close()

	if verbose {
		for _, dn := range cluster.DeviceNames() {
			d, _ := cluster.Device(dn)
			d.SetLogf(func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			})
		}
	}

	pipeline, err := cluster.Launch(*cfg, planner)
	if err != nil {
		return err
	}
	fmt.Printf("pipeline %q deployed with the %s plan:\n", cfg.Name, pipeline.PlannerName())
	for _, m := range pipeline.Modules() {
		fmt.Printf("  %-24s on %s\n", m, pipeline.Placement()[m])
	}

	fmt.Printf("running for %v at %g fps source...\n\n", duration, cfg.Source.FPS)
	result, err := pipeline.Run(context.Background(), duration)
	if err != nil {
		return err
	}
	fmt.Print(result)
	return nil
}

// lintJSONDiag is the machine-readable form of one pipevet/pipecost
// finding, mirroring the field layout of `vpvet -json` so CI can consume
// both with one schema.
type lintJSONDiag struct {
	File     string `json:"file"`
	Module   string `json:"module,omitempty"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// runLint statically analyzes a config with pipevet and reports every
// diagnostic without deploying anything. The return value is the process
// exit status: 0 when the pipeline is deployable (warnings allowed),
// 1 when the config fails to parse/validate or any diagnostic is an error.
// With werror, warnings also fail the lint (exit 1 on any finding); the
// diagnostics themselves keep their severities. With jsonOut, the
// diagnostics go to stdout as an indented JSON array (structural errors
// still print to stderr).
func runLint(configPath string, jsonOut, werror bool, stdout, stderr io.Writer) int {
	cfg, diags, err := lintConfig(configPath)
	errors := 0
	for _, d := range diags {
		if d.Severity == videopipe.SeverityError {
			errors++
		}
		if !jsonOut {
			fmt.Fprintf(stderr, "%s: %s\n", configPath, d)
		}
	}
	if jsonOut {
		out := make([]lintJSONDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, lintJSONDiag{
				File:     configPath,
				Module:   d.Module,
				Line:     d.Pos.Line,
				Col:      d.Pos.Col,
				Code:     d.Code,
				Severity: d.Severity.String(),
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if encErr := enc.Encode(out); encErr != nil {
			fmt.Fprintln(stderr, "videopipe:", encErr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "videopipe:", err)
		return 1
	}
	if errors > 0 {
		fmt.Fprintf(stderr, "%s: %d error(s), %d warning(s)\n", configPath, errors, len(diags)-errors)
		return 1
	}
	if werror && len(diags) > 0 {
		fmt.Fprintf(stderr, "%s: %d warning(s) promoted to errors by -Werror\n", configPath, len(diags))
		return 1
	}
	if !jsonOut {
		printReplication(stdout, configPath, cfg)
		fmt.Fprintf(stdout, "%s: ok (%d warning(s))\n", configPath, len(diags))
	}
	return 0
}

// printReplication says, one line per module, whether the device runtime
// will run it on several isolated contexts at once (it provably keeps no
// state between events) or on one, and in that case what state it keeps —
// the same script.Facts verdict SpawnModule acts on.
func printReplication(w io.Writer, configPath string, cfg *videopipe.PipelineConfig) {
	for _, m := range cfg.Modules {
		facts := script.Analyze(m.Source, script.Options{}).Facts
		fmt.Fprintf(w, "%s: module %s: %s\n", configPath, m.Name, facts.Replication())
	}
}

// lintConfig parses a Listing-1 config and runs the full analyzer over it.
// Structural problems (unreadable file, parse failure, Validate errors)
// come back as err alongside whatever script diagnostics were gathered.
func lintConfig(configPath string) (*videopipe.PipelineConfig, []videopipe.Diagnostic, error) {
	if configPath == "" {
		return nil, nil, fmt.Errorf("missing -config (use -example for a starting point)")
	}
	text, err := os.ReadFile(configPath)
	if err != nil {
		return nil, nil, err
	}
	name := strings.TrimSuffix(filepath.Base(configPath), filepath.Ext(configPath))
	cfg, err := videopipe.ParseConfig(name, string(text), videopipe.FileResolver(filepath.Dir(configPath)))
	if err != nil {
		return nil, nil, err
	}
	diags := videopipe.AnalyzePipeline(cfg)
	return cfg, diags, cfg.Validate()
}
