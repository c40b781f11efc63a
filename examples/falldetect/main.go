// Falldetect: the paper's fall-detection application (§4.3), configured
// from a Listing-1-style text file rather than Go code — demonstrating the
// config dialect, include() resolution and per-module device pins.
//
// The synthetic subject stands, then falls; the pipeline detects the
// sustained horizontal-torso, dropped-hips geometry and raises an alert.
//
//	go run ./examples/falldetect [-fps 15] [-dur 8s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"videopipe"
)

// pipelineConfig is the application in the paper's configuration dialect
// (Listing 1). Module code would normally live in .js files referenced by
// include(); here the resolver serves them from an in-memory map.
const pipelineConfig = `
// Fall detection for elderly care (paper §4.3).
modules : [
	{ name: video_streaming
	  include ("VideoStreaming.js")
	  device: phone
	  next_module: pose_detection }
	{ name: pose_detection
	  include ("PoseDetection.js")
	  service: ['pose_detector']
	  device: desktop
	  next_module: fall_monitor }
	{ name: fall_monitor
	  include ("FallMonitor.js")
	  service: ['fall_detector']
	  device: desktop
	  next_module: alert }
	{ name: alert
	  include ("Alert.js")
	  device: tv }
]
source : { device: phone, module: video_streaming, fps: 15,
           width: 480, height: 360, scene: fall, rep_rate: 0.4 }
`

// moduleFiles holds the PipeScript sources the config include()s.
var moduleFiles = map[string]string{
	"VideoStreaming.js": `
		function event_received(message) {
			call_module("pose_detection", {
				frame_ref: message.frame_ref,
				captured_ms: message.captured_ms
			});
		}
	`,
	"PoseDetection.js": `
		function event_received(message) {
			var r = call_service("pose_detector", {frame_ref: message.frame_ref});
			if (!r.found) { frame_done(); return; }
			call_module("fall_monitor", {
				frame_ref: message.frame_ref,
				pose: r.pose,
				captured_ms: message.captured_ms
			});
		}
	`,
	"FallMonitor.js": `
		var state = "";
		function event_received(message) {
			var r = call_service("fall_detector", {state: state, pose: message.pose});
			state = r.state;
			call_module("alert", {
				frame_ref: message.frame_ref,
				fallen: r.fallen,
				alert: r.alert,
				captured_ms: message.captured_ms
			});
		}
	`,
	"Alert.js": `
		var alerts = 0;
		function event_received(message) {
			if (message.alert) {
				alerts++;
				metric("fall_alerts", 1);
				log("FALL DETECTED at frame; notifying caregiver");
			}
			frame_done();
		}
	`,
}

func main() {
	var (
		fps = flag.Float64("fps", 15, "camera frame rate")
		dur = flag.Duration("dur", 8*time.Second, "run duration")
	)
	flag.Parse()

	cfg, err := videopipe.ParseConfig("falldetect", pipelineConfig, func(path string) (string, error) {
		src, ok := moduleFiles[path]
		if !ok {
			return "", fmt.Errorf("no module file %q", path)
		}
		return src, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	cfg.Source.FPS = *fps

	registry, err := videopipe.NewStandardServices(videopipe.DefaultServiceOptions())
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := videopipe.NewCluster(videopipe.HomeClusterSpec(), registry)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Surface module log() output, so the alert is visible.
	for _, name := range cluster.DeviceNames() {
		d, _ := cluster.Device(name)
		d.SetLogf(func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		})
	}

	// The config pins every module; the planner honours pins before any
	// placement rule of its own.
	pipeline, err := cluster.Launch(*cfg, videopipe.CoLocatePlanner{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("watching for falls (%v at %g fps)...\n", *dur, *fps)
	result, err := pipeline.Run(context.Background(), *dur)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nframes processed: %d (%.1f fps)\n", result.Delivered, result.FPS)
	if n := result.Stages["fall_alerts"].Count; n > 0 {
		fmt.Printf("fall alerts raised: %d\n", n)
	} else {
		fmt.Println("no fall detected (try a longer -dur)")
	}
}
