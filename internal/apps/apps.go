// Package apps defines the applications the paper builds on VideoPipe
// (§4): the fitness workout-guidance pipeline (Fig. 4), the gesture-based
// IoT control pipeline (§4.2) and the fall-detection pipeline (§4.3) —
// each as a module DAG whose module logic is PipeScript, exactly as the
// paper's modules are JavaScript.
//
// The same module sources run under both deployment plans; only placement
// differs. Per-stage timings are reported from inside the module code via
// metric(), which is how Fig. 6's bars are measured.
package apps

import (
	"videopipe/internal/core"
	"videopipe/internal/device"
	"videopipe/internal/netsim"
	"videopipe/internal/services"
)

// Module scripts for the fitness application (paper Fig. 4).
const (
	// VideoStreamingSrc runs on the phone: it receives camera frames and
	// streams them into the pipeline.
	VideoStreamingSrc = `
		function event_received(message) {
			var t0 = now_ms();
			call_module("pose_detection", {
				frame_ref: message.frame_ref,
				captured_ms: message.captured_ms,
				seq: message.seq
			});
			metric("stream", now_ms() - t0);
		}
	`

	// PoseDetectionSrc calls the 2D pose detector (§4.1.1). load_frame is
	// the capture-to-pose-stage delay, pose the detector call itself.
	PoseDetectionSrc = `
		function event_received(message) {
			metric("load_frame", now_ms() - message.captured_ms);
			var t0 = now_ms();
			var r = call_service("pose_detector", {frame_ref: message.frame_ref});
			metric("pose", now_ms() - t0);
			if (!r.found) {
				frame_done();
				return;
			}
			call_module("activity_recognition", {
				frame_ref: message.frame_ref,
				pose: r.pose,
				captured_ms: message.captured_ms,
				seq: message.seq
			});
		}
	`

	// ActivityRecognitionSrc keeps the 15-frame sliding window (§4.1.2)
	// as encapsulated module state and classifies once the window fills.
	ActivityRecognitionSrc = `
		var window = [];
		function event_received(message) {
			push(window, message.pose);
			if (len(window) > 15) { shift(window); }
			var activity = "warming_up";
			var confidence = 0;
			if (len(window) == 15) {
				var t0 = now_ms();
				var r = call_service("activity_classifier", {poses: window});
				metric("activity", now_ms() - t0);
				activity = r.activity;
				confidence = r.confidence;
			}
			call_module("rep_counter", {
				frame_ref: message.frame_ref,
				pose: message.pose,
				activity: activity,
				confidence: confidence,
				captured_ms: message.captured_ms,
				seq: message.seq
			});
		}
	`

	// RepCounterSrc owns the stateless rep-counter's state blob (§4.1.3):
	// the module keeps the state, the service does the math.
	RepCounterSrc = `
		var state = "";
		var reps = 0;
		function event_received(message) {
			if (message.confidence < 0.5) {
				metric("low_confidence", 1);
			}
			var t0 = now_ms();
			var r = call_service("rep_counter", {state: state, pose: message.pose});
			metric("rep_count", now_ms() - t0);
			// "Total Duration" matches the paper's Fig. 6 semantics: capture
			// through rep counting (the figure carries no display bar and its
			// total tracks the sum of the four analysis stages).
			metric("total", now_ms() - message.captured_ms);
			state = r.state;
			reps = r.reps;
			call_module("display", {
				frame_ref: message.frame_ref,
				pose: message.pose,
				activity: message.activity,
				reps: reps,
				captured_ms: message.captured_ms,
				seq: message.seq
			});
		}
	`

	// DisplaySrc composes the TV output (Fig. 3) and signals frame
	// completion — the §2.3 flow-control credit.
	DisplaySrc = `
		var frames = 0;
		var last_seq = -1;
		function event_received(message) {
			if (last_seq >= 0 && message.seq - last_seq > 1) {
				metric("display_gaps", message.seq - last_seq - 1);
			}
			last_seq = message.seq;
			var t0 = now_ms();
			call_service("display", {
				frame_ref: message.frame_ref,
				pose: message.pose,
				activity: message.activity,
				reps: message.reps
			});
			metric("display", now_ms() - t0);
			metric("display_total", now_ms() - message.captured_ms);
			frames++;
			frame_done();
		}
	`
)

// Gesture-control module scripts (paper §4.2).
const (
	// GestureRecognitionSrc classifies pose windows and debounces
	// actionable gestures with a cooldown so one wave doesn't fire twice.
	GestureRecognitionSrc = `
		var window = [];
		var cooldown = 0;
		function event_received(message) {
			push(window, message.pose);
			if (len(window) > 15) { shift(window); }
			if (cooldown > 0) { cooldown--; }
			var gesture = "none";
			if (len(window) == 15 && cooldown == 0) {
				var t0 = now_ms();
				var r = call_service("activity_classifier", {poses: window});
				metric("gesture_classify", now_ms() - t0);
				if (r.actionable && (r.activity == "clap" || r.activity == "wave")) {
					gesture = r.activity;
					cooldown = 20;
				}
			}
			call_module("iot_control", {
				frame_ref: message.frame_ref,
				gesture: gesture,
				captured_ms: message.captured_ms
			});
		}
	`

	// IoTControlSrc maps gestures to home actions: clapping toggles the
	// living-room light, waving toggles the doorbell camera (§4.2).
	IoTControlSrc = `
		var light_on = false;
		var doorbell_on = true;
		function event_received(message) {
			if (message.gesture == "clap") {
				light_on = !light_on;
				metric("light_toggles", 1);
				log("light toggled", light_on);
			}
			if (message.gesture == "wave") {
				doorbell_on = !doorbell_on;
				metric("doorbell_toggles", 1);
				log("doorbell toggled", doorbell_on);
			}
			metric("gesture_total", now_ms() - message.captured_ms);
			frame_done();
		}
	`
)

// Fall-detection module scripts (paper §4.3).
const (
	// FallMonitorSrc feeds poses through the stateless fall detector.
	FallMonitorSrc = `
		var state = "";
		function event_received(message) {
			var t0 = now_ms();
			var r = call_service("fall_detector", {state: state, pose: message.pose});
			metric("fall_check", now_ms() - t0);
			state = r.state;
			call_module("alert", {
				frame_ref: message.frame_ref,
				fallen: r.fallen,
				alert: r.alert,
				captured_ms: message.captured_ms
			});
		}
	`

	// AlertSrc raises (simulated) alarms on newly detected falls.
	AlertSrc = `
		var alerts = 0;
		function event_received(message) {
			if (message.fallen) {
				metric("falls_seen", 1);
			}
			if (message.alert) {
				alerts++;
				metric("fall_alerts", 1);
				log("FALL DETECTED - alerting caregiver");
			}
			metric("fall_total", now_ms() - message.captured_ms);
			frame_done();
		}
	`
)

// Default capture geometry for the applications: a phone camera at a
// living-room distance. Small enough that JPEG encode cost matches a
// phone-class device, large enough for reliable pose detection.
const (
	FrameWidth  = 480
	FrameHeight = 360
)

// FitnessConfig builds the fitness pipeline (Fig. 4): video streaming on
// the phone, pose detection, activity recognition and rep counting beside
// their services, display on the TV. scene names the exercise the
// synthetic subject performs.
func FitnessConfig(name string, fps float64, scene string) core.PipelineConfig {
	return cameraPipeline(name, fps, scene, 0.5,
		stage("pose_detection", PoseDetectionSrc, services.PoseDetector),
		stage("activity_recognition", ActivityRecognitionSrc, services.ActivityClassifier),
		stage("rep_counter", RepCounterSrc, services.RepCounter),
		stage("display", DisplaySrc, services.Display))
}

// cameraPipeline is a pipeline the phone's camera feeds at fps, filming
// scene at repRate repetitions a second: video streaming on the phone, then
// stages, each feeding the next.
func cameraPipeline(name string, fps float64, scene string, repRate float64, stages ...core.ModuleConfig) core.PipelineConfig {
	modules := append([]core.ModuleConfig{{Name: "video_streaming", Source: VideoStreamingSrc}}, stages...)
	for i := range modules[1:] {
		modules[i].Next = []string{modules[i+1].Name}
	}
	return core.PipelineConfig{
		Name:    name,
		Modules: modules,
		Source: core.SourceConfig{
			Device:      "phone",
			FirstModule: "video_streaming",
			FPS:         fps,
			Width:       FrameWidth,
			Height:      FrameHeight,
			Scene:       scene,
			RepRate:     repRate,
		},
	}
}

// stage is a module running src that calls the named services.
func stage(name, src string, svcs ...string) core.ModuleConfig {
	return core.ModuleConfig{Name: name, Source: src, Services: svcs}
}

// GestureConfig builds the IoT gesture-control pipeline (§4.2). scene is
// the gesture the synthetic subject performs ("clap" or "wave").
func GestureConfig(name string, fps float64, scene string) core.PipelineConfig {
	return cameraPipeline(name, fps, scene, 0.4,
		stage("pose_detection", gesturePoseSrc, services.PoseDetector),
		stage("gesture_recognition", GestureRecognitionSrc, services.ActivityClassifier),
		stage("iot_control", IoTControlSrc))
}

// gesturePoseSrc is PoseDetectionSrc retargeted at the gesture chain.
const gesturePoseSrc = `
	var last_seq = -1;
	function event_received(message) {
		if (last_seq >= 0 && message.seq - last_seq > 1) {
			metric("dropped_frames", message.seq - last_seq - 1);
		}
		last_seq = message.seq;
		metric("load_frame", now_ms() - message.captured_ms);
		var t0 = now_ms();
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		metric("pose", now_ms() - t0);
		if (!r.found) {
			frame_done();
			return;
		}
		call_module("gesture_recognition", {
			frame_ref: message.frame_ref,
			pose: r.pose,
			captured_ms: message.captured_ms
		});
	}
`

// fallPoseSrc is PoseDetectionSrc retargeted at the fall chain.
const fallPoseSrc = `
	var last_seq = -1;
	function event_received(message) {
		if (last_seq >= 0 && message.seq - last_seq > 1) {
			metric("dropped_frames", message.seq - last_seq - 1);
		}
		last_seq = message.seq;
		metric("load_frame", now_ms() - message.captured_ms);
		var t0 = now_ms();
		var r = call_service("pose_detector", {frame_ref: message.frame_ref});
		metric("pose", now_ms() - t0);
		if (!r.found) {
			frame_done();
			return;
		}
		call_module("fall_monitor", {
			frame_ref: message.frame_ref,
			pose: r.pose,
			captured_ms: message.captured_ms
		});
	}
`

// FallConfig builds the fall-detection pipeline (§4.3).
func FallConfig(name string, fps float64) core.PipelineConfig {
	return cameraPipeline(name, fps, "fall", 0.4,
		stage("pose_detection", fallPoseSrc, services.PoseDetector),
		stage("fall_monitor", FallMonitorSrc, services.FallDetector),
		stage("alert", AlertSrc))
}

// HomeClusterSpec is the paper's testbed (§5.1): a phone, a desktop and a
// TV on home Wi-Fi. VideoPipe's service placement puts the vision services
// on the desktop and the display service on the TV (Fig. 4).
func HomeClusterSpec() core.ClusterSpec { return homeCluster("tv") }

// BaselineClusterSpec mirrors the paper's baseline (Fig. 5): the same
// hardware, but every service — including display — lives on the desktop
// server the phone's application calls into.
func BaselineClusterSpec() core.ClusterSpec { return homeCluster("desktop") }

// homeCluster is the testbed with the vision services on the desktop and
// the display service on the device named display.
func homeCluster(display string) core.ClusterSpec {
	return core.ClusterSpec{
		Devices: []device.Config{
			{Name: "phone", Class: device.Phone},
			{Name: "desktop", Class: device.Desktop},
			{Name: "tv", Class: device.TV},
		},
		DefaultLink: netsim.WiFi,
		Services: []core.ServicePlacement{
			{Service: services.PoseDetector, Device: "desktop"},
			{Service: services.ActivityClassifier, Device: "desktop"},
			{Service: services.RepCounter, Device: "desktop"},
			{Service: services.FallDetector, Device: "desktop"},
			{Service: services.Display, Device: display},
		},
	}
}
