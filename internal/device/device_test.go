package device

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/netsim"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

func testNet() *netsim.Network { return netsim.NewNetwork(netsim.LinkProfile{}) }

func newDevice(t *testing.T, nw *netsim.Network, name string, class Class) *Device {
	t.Helper()
	d, err := New(Config{Name: name, Class: class}, nw.Host(name), nil)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// poseValue is the script form of a pose, as the pose_detector service
// builds it.
func poseValue(p vision.Pose) *script.Object {
	kps := script.NewArray()
	for i, kp := range p.Keypoints {
		kps.Elems = append(kps.Elems, script.FromGo(map[string]any{"name": vision.KeypointNames[i], "x": kp.X, "y": kp.Y}))
	}
	return script.FromGo(map[string]any{
		"keypoints": kps, "score": p.Score,
		"box": map[string]any{"min_x": p.Box.MinX, "min_y": p.Box.MinY, "max_x": p.Box.MaxX, "max_y": p.Box.MaxY},
	}).(*script.Object)
}

// echoSpec returns a trivial service spec that echoes its args.
func echoSpec(name string) services.Spec {
	return services.Spec{
		Name: name,
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			out := map[string]script.Value{"echo": true}
			for k, v := range req.Args {
				out[k] = v
			}
			if req.Frame != nil {
				out["frame_w"] = float64(req.Frame.Width)
			}
			return services.Response{Result: out}, nil
		},
	}
}

func TestNewValidation(t *testing.T) {
	nw := testNet()
	if _, err := New(Config{}, nw.Host("x"), nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New(Config{Name: "x"}, nil, nil); err == nil {
		t.Error("nil transport accepted")
	}
}

func TestDefaultProfiles(t *testing.T) {
	if !DefaultProfile(Desktop).ContainerCapable {
		t.Error("desktop not container capable")
	}
	if DefaultProfile(Phone).ContainerCapable {
		t.Error("phone container capable")
	}
	if DefaultProfile(Desktop).CPUFactor != 1.0 {
		t.Error("desktop is not the reference CPU")
	}
	if DefaultProfile(Watch).CPUFactor >= DefaultProfile(Phone).CPUFactor {
		t.Error("watch should be slower than phone")
	}
}

func TestDeployServiceCapability(t *testing.T) {
	nw := testNet()
	phone := newDevice(t, nw, "phone", Phone)
	if _, err := phone.DeployService(echoSpec("s"), 1); err == nil {
		t.Error("phone (no containers) deployed a service")
	}
	desktop := newDevice(t, nw, "desktop", Desktop)
	if _, err := desktop.DeployService(echoSpec("s"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	if _, err := desktop.DeployService(echoSpec("s"), 1); err == nil {
		t.Error("duplicate service deployment accepted")
	}
	if _, ok := desktop.Pool("s"); !ok {
		t.Error("pool not registered")
	}
}

func TestCallServiceLocalAndRemote(t *testing.T) {
	nw := testNet()
	desktop := newDevice(t, nw, "desktop", Desktop)
	phone := newDevice(t, nw, "phone", Phone)

	if _, err := desktop.DeployService(echoSpec("echo"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	addr, err := desktop.ServeServices(0)
	if err != nil {
		t.Fatalf("ServeServices: %v", err)
	}
	phone.RegisterRemoteService("echo", addr.String())

	ctx := context.Background()
	f := frame.MustNew(32, 16)

	// Local call from the desktop.
	resp, err := desktop.CallService(ctx, "echo", map[string]script.Value{"k": "v"}, f)
	if err != nil {
		t.Fatalf("local CallService: %v", err)
	}
	if resp.Result["k"] != "v" || resp.Result["frame_w"] != float64(32) {
		t.Errorf("local result = %v", resp.Result)
	}

	// Remote call from the phone (frame crosses the wire).
	resp, err = phone.CallService(ctx, "echo", map[string]script.Value{"k": "v2"}, f)
	if err != nil {
		t.Fatalf("remote CallService: %v", err)
	}
	if resp.Result["k"] != "v2" || resp.Result["frame_w"] != float64(32) {
		t.Errorf("remote result = %v", resp.Result)
	}

	// Metric split records local vs remote.
	if desktop.Metrics().Histogram("service.echo.local").Count() == 0 {
		t.Error("local call not recorded")
	}
	if phone.Metrics().Histogram("service.echo.remote").Count() == 0 {
		t.Error("remote call not recorded")
	}

	// Unknown service.
	if _, err := phone.CallService(ctx, "nope", nil, nil); err == nil {
		t.Error("unknown service call succeeded")
	}
	if !phone.HasService("echo") || phone.HasService("nope") {
		t.Error("HasService wrong")
	}
}

func TestSpawnModuleValidation(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if _, err := d.SpawnModule(ModuleSpec{Source: "1"}); err == nil {
		t.Error("missing name accepted")
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "m"}); err == nil {
		t.Error("missing source accepted")
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "m", Source: "var x = ;"}); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "m", Source: "var ok = 1;"}); err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "m", Source: "var ok = 1;"}); err == nil {
		t.Error("duplicate module accepted")
	}
}

func TestModuleInitAndEvents(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		var inits = 0;
		var seen = [];
		function init() { inits++; }
		function event_received(message) {
			push(seen, message.value);
			metric("seen_count", len(seen));
		}
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "acc", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		if err := m.Inject(ctx, map[string]any{"value": float64(i)}, nil); err != nil {
			t.Fatalf("Inject: %v", err)
		}
	}
	waitFor(t, func() bool {
		return d.Metrics().Meter("module.acc.events").Count() == 3
	})
	if errs := d.Metrics().Meter("module.acc.errors").Count(); errs != 0 {
		t.Errorf("module errors = %d", errs)
	}
	if got := d.Metrics().Histogram("stage.seen_count").Count(); got != 3 {
		t.Errorf("metric() observations = %d", got)
	}
}

func TestModuleCallServiceWithFrame(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if _, err := d.DeployService(echoSpec("analyze"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	src := `
		function event_received(message) {
			var r = call_service("analyze", {frame_ref: message.frame_ref, tag: "t"});
			metric("frame_w", r.frame_w);
		}
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "caller", Source: src, Services: []string{"analyze"}})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	if err := m.Inject(context.Background(), nil, frame.MustNew(48, 48)); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool {
		return d.Metrics().Histogram("stage.frame_w").Count() == 1
	})
	if got := d.Metrics().Histogram("stage.frame_w").Mean(); got != 48*time.Millisecond {
		t.Errorf("service saw frame width %v, want 48 (as ms)", got)
	}
	// Frame refs released after the event.
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

func TestModuleServicePermissionEnforced(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if _, err := d.DeployService(echoSpec("allowed"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	if _, err := d.DeployService(echoSpec("forbidden"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	src := `
		var denied = false;
		function event_received(message) {
			try { call_service("forbidden", {}); }
			catch (e) { denied = true; metric("denied", 1); }
		}
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: src, Services: []string{"allowed"}})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	m.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool {
		return d.Metrics().Histogram("stage.denied").Count() == 1
	})
}

func TestModuleChainLocalFrameByReference(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)

	first := `
		function event_received(message) {
			call_module("second", {frame_ref: message.frame_ref, hop: 1});
		}
	`
	second := `
		function event_received(message) {
			if (message.frame_ref != null && message.hop == 1) {
				metric("arrived", 1);
			}
			frame_done();
		}
	`
	if _, err := d.SpawnModule(ModuleSpec{Name: "second", Source: second}); err != nil {
		t.Fatalf("SpawnModule(second): %v", err)
	}
	m1, err := d.SpawnModule(ModuleSpec{
		Name: "first", Source: first,
		Next: []Route{{Module: "second"}}, // local edge
	})
	if err != nil {
		t.Fatalf("SpawnModule(first): %v", err)
	}

	var credits atomic.Int64
	sec, _ := d.Module("second")
	sec.SetFrameDone(func(time.Duration) { credits.Add(1) })

	f := frame.MustNew(16, 16)
	f.Captured = time.Now()
	if err := m1.Inject(context.Background(), nil, f); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return credits.Load() == 1 })
	if got := d.Metrics().Histogram("stage.arrived").Count(); got != 1 {
		t.Errorf("frame did not arrive by reference: %d", got)
	}
	if got := d.Metrics().Histogram("pipeline.second.e2e").Count(); got != 1 {
		t.Errorf("e2e latency not recorded: %d", got)
	}
	// All references released after both events completed.
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

func TestModuleChainRemote(t *testing.T) {
	nw := testNet()
	phone := newDevice(t, nw, "phone", Phone)
	desktop := newDevice(t, nw, "desktop", Desktop)

	receiver := `
		function event_received(message) {
			if (message.frame_ref != null) {
				var r = call_service("analyze", {frame_ref: message.frame_ref});
				metric("remote_w", r.frame_w);
			}
		}
	`
	if _, err := desktop.DeployService(echoSpec("analyze"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	recv, err := desktop.SpawnModule(ModuleSpec{Name: "recv", Source: receiver, Services: []string{"analyze"}})
	if err != nil {
		t.Fatalf("SpawnModule(recv): %v", err)
	}

	sender := `
		function event_received(message) {
			call_module("recv", {frame_ref: message.frame_ref, note: "hi"});
		}
	`
	send, err := phone.SpawnModule(ModuleSpec{
		Name: "send", Source: sender,
		Next: []Route{{Module: "recv", Address: recv.Addr().String()}},
	})
	if err != nil {
		t.Fatalf("SpawnModule(send): %v", err)
	}

	if err := send.Inject(context.Background(), nil, frame.MustNew(64, 32)); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool {
		return desktop.Metrics().Histogram("stage.remote_w").Count() == 1
	})
	// Sender encoded the frame for the wire.
	if phone.Metrics().Histogram("module.send.encode").Count() == 0 {
		t.Error("no encode recorded for remote transfer")
	}
	// Both stores drain.
	waitFor(t, func() bool { return phone.Store().Len() == 0 && desktop.Store().Len() == 0 })
}

func TestModuleUnknownEdgeRejected(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		function event_received(message) {
			try { call_module("ghost", {}); }
			catch (e) { metric("rejected", 1); }
		}
	`
	m, _ := d.SpawnModule(ModuleSpec{Name: "m", Source: src})
	m.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool {
		return d.Metrics().Histogram("stage.rejected").Count() == 1
	})
}

func TestTryInjectDropsWhenBusy(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	// One context (the counter is state), so one slow event makes it busy.
	src := `
		var events = 0;
		function event_received(message) {
			events++;
			var t0 = now_ms();
			while (now_ms() - t0 < 50) {}
		}
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "slow", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	accepted, dropped := 0, 0
	for i := 0; i < 10; i++ {
		ok, err := m.TryInject(map[string]any{"i": float64(i)}, nil)
		if err != nil {
			t.Fatalf("TryInject: %v", err)
		}
		if ok {
			accepted++
		} else {
			dropped++
		}
		time.Sleep(2 * time.Millisecond)
	}
	if dropped == 0 {
		t.Error("no drops despite busy module — queue-free design violated")
	}
	if accepted == 0 {
		t.Error("nothing accepted")
	}
	// Dropped frames must not leak store entries.
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

func TestModuleLogSink(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	var logged atomic.Int64
	var lastMsg atomic.Value
	d.SetLogf(func(format string, args ...any) {
		logged.Add(1)
		lastMsg.Store(fmt.Sprintf(format, args...))
	})
	src := `function event_received(message) { log("frame", message.n); }`
	m, _ := d.SpawnModule(ModuleSpec{Name: "logger", Source: src})
	m.Inject(context.Background(), map[string]any{"n": float64(7)}, nil)
	waitFor(t, func() bool { return logged.Load() == 1 })
	if s, _ := lastMsg.Load().(string); !strings.Contains(s, "desktop/logger") || !strings.Contains(s, "7") {
		t.Errorf("log output = %q", s)
	}
}

func TestModuleUsesPoseServiceEndToEnd(t *testing.T) {
	// Integration: script module calls the real pose detector on a rendered
	// frame, co-located on one desktop.
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	spec := services.Spec{
		Name: services.PoseDetector,
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			pose, found := vision.DetectPose(req.Frame)
			res := map[string]script.Value{"found": found}
			if found {
				res["pose"] = poseValue(pose)
			}
			return services.Response{Result: res}, nil
		},
	}
	if _, err := d.DeployService(spec, 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}

	src := `
		function event_received(message) {
			var r = call_service("pose_detector", {frame_ref: message.frame_ref});
			if (r.found) {
				var nose = r.pose.keypoints[0];
				metric("nose_x", nose.x);
			}
			frame_done();
		}
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "posed", Source: src, Services: []string{services.PoseDetector}})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}

	f := frame.MustNew(640, 480)
	truth := vision.SynthesizePose(vision.Idle, 0, vision.DefaultSubject(), nil)
	vision.RenderScene(f, truth)
	if err := m.Inject(context.Background(), nil, f); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool {
		return d.Metrics().Histogram("stage.nose_x").Count() == 1
	})
	noseX := d.Metrics().Histogram("stage.nose_x").Mean()
	wantX := time.Duration(truth.Keypoints[vision.Nose].X * float64(time.Millisecond))
	diff := noseX - wantX
	if diff < 0 {
		diff = -diff
	}
	if diff > 5*time.Millisecond {
		t.Errorf("script saw nose x %v, truth %v", noseX, wantX)
	}
}

func TestDeviceCloseIdempotent(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	d.SpawnModule(ModuleSpec{Name: "m", Source: "var x = 1;"})
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "late", Source: "var y = 1;"}); err != nil {
		// Spawning after close is allowed to fail or succeed; just must not
		// panic. Nothing to assert.
		_ = err
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within 5s")
}

func TestDeviceAccessors(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if d.Name() != "desktop" {
		t.Errorf("Name = %q", d.Name())
	}
	if d.Class() != Desktop || d.Class().String() != "desktop" {
		t.Errorf("Class = %v", d.Class())
	}
	if !d.ContainerCapable() {
		t.Error("desktop not container capable")
	}
	if d.CPUFactor() != 1.0 {
		t.Errorf("CPUFactor = %v", d.CPUFactor())
	}
	if d.Transport() == nil {
		t.Error("nil transport")
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		Phone: "phone", Desktop: "desktop", TV: "tv",
		Laptop: "laptop", Watch: "watch", Fridge: "fridge",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
	if !strings.Contains(Class(99).String(), "99") {
		t.Errorf("invalid class String = %q", Class(99).String())
	}
}

func TestDefaultProfilesComplete(t *testing.T) {
	for _, c := range []Class{Phone, Desktop, TV, Laptop, Watch, Fridge} {
		p := DefaultProfile(c)
		if p.CPUFactor <= 0 {
			t.Errorf("%s: cpu factor %v", c, p.CPUFactor)
		}
	}
	if DefaultProfile(Class(99)).CPUFactor <= 0 {
		t.Error("unknown class has no fallback profile")
	}
	// Media factors: consumer devices have hardware codecs; wearables and
	// appliances do not.
	if DefaultProfile(Phone).MediaFactor != 1.0 {
		t.Error("phone should have a hardware codec")
	}
	if DefaultProfile(Watch).MediaFactor >= 1.0 {
		t.Error("watch should lack a hardware codec")
	}
}

func TestPaddedCodecScalesTime(t *testing.T) {
	f := frame.MustNew(160, 120)
	inner := frame.JPEGCodec{Quality: 85}
	fast := paddedCodec{inner: inner, cpuFactor: 1.0}
	slow := paddedCodec{inner: inner, cpuFactor: 0.1}
	if fast.Name() != "jpeg" {
		t.Errorf("Name = %q", fast.Name())
	}

	start := time.Now()
	data, err := fast.Encode(f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	fastTime := time.Since(start)

	start = time.Now()
	if _, err := slow.Encode(f); err != nil {
		t.Fatalf("slow Encode: %v", err)
	}
	slowTime := time.Since(start)
	// Loose bound: CI scheduling noise can compress the gap.
	if slowTime < 3*fastTime {
		t.Errorf("slow codec %v not much slower than fast %v", slowTime, fastTime)
	}

	// Decode path pads too, and round trips.
	if _, err := slow.Decode(data); err != nil {
		t.Fatalf("Decode: %v", err)
	}
}

func TestSetCodecKeepsPadding(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "watch", Watch) // MediaFactor 0.3
	d.SetCodec(frame.RawCodec{})
	pc, ok := d.codec.(paddedCodec)
	if !ok {
		t.Fatalf("codec type %T", d.codec)
	}
	if pc.Name() != "raw" {
		t.Errorf("inner codec %q", pc.Name())
	}
	if pc.cpuFactor != 0.3 {
		t.Errorf("pad factor %v, want media factor 0.3", pc.cpuFactor)
	}
}

func TestModuleInjectContextCancelled(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	// A module that never drains its channel: one context (it keeps state),
	// busy for 300 ms per event.
	src := `var events = 0;
		function event_received(message) { events++; var t0 = now_ms(); while (now_ms() - t0 < 300) {} }`
	m, err := d.SpawnModule(ModuleSpec{Name: "busy", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	// Fill the slot and occupy the handler.
	m.Inject(context.Background(), nil, frame.MustNew(4, 4))
	m.Inject(context.Background(), nil, frame.MustNew(4, 4))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := m.Inject(ctx, nil, frame.MustNew(4, 4)); err == nil {
		t.Error("Inject into saturated module with expired ctx succeeded")
	}
	// The cancelled inject's frame must not leak.
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

func TestModuleFanOutRetainsPerDestination(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	sink := `function event_received(message) {
		if (message.frame_ref != null) { metric("got_frame", 1); }
	}`
	if _, err := d.SpawnModule(ModuleSpec{Name: "left", Source: sink}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "right", Source: sink}); err != nil {
		t.Fatal(err)
	}
	fan := `function event_received(message) {
		call_module("left", {frame_ref: message.frame_ref});
		call_module("right", {frame_ref: message.frame_ref});
	}`
	m, err := d.SpawnModule(ModuleSpec{
		Name: "fan", Source: fan,
		Next: []Route{{Module: "left"}, {Module: "right"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Inject(context.Background(), nil, frame.MustNew(8, 8)); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool {
		return d.Metrics().Histogram("stage.got_frame").Count() == 2
	})
	// Both branches done: every reference released.
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

func TestHostMetricValidation(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		function event_received(message) {
			var failures = 0;
			try { metric(); } catch (e) { failures++; }
			try { metric(42, 1); } catch (e) { failures++; }
			try { metric("name", "notanumber"); } catch (e) { failures++; }
			metric("failures", failures);
		}
	`
	m, _ := d.SpawnModule(ModuleSpec{Name: "m", Source: src})
	m.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.failures").Count() == 1 })
	if got := d.Metrics().Histogram("stage.failures").Mean(); got != 3*time.Millisecond {
		t.Errorf("metric() validation failures = %v, want 3 (as ms)", got)
	}
}

func TestCallServiceValidationFromScript(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if _, err := d.DeployService(echoSpec("svc"), 1); err != nil {
		t.Fatal(err)
	}
	src := `
		function event_received(message) {
			var failures = 0;
			try { call_service(); } catch (e) { failures++; }
			try { call_service(42); } catch (e) { failures++; }
			try { call_service("svc", "not an object"); } catch (e) { failures++; }
			try { call_service("svc", {frame_ref: "bad"}); } catch (e) { failures++; }
			try { call_service("svc", {frame_ref: 99999}); } catch (e) { failures++; }
			metric("failures", failures);
		}
	`
	m, _ := d.SpawnModule(ModuleSpec{Name: "m", Source: src, Services: []string{"svc"}})
	m.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.failures").Count() == 1 })
	if got := d.Metrics().Histogram("stage.failures").Mean(); got != 5*time.Millisecond {
		t.Errorf("call_service validation failures = %v, want 5 (as ms)", got)
	}
}

func TestCallModuleValidationFromScript(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if _, err := d.SpawnModule(ModuleSpec{Name: "next", Source: "function event_received(m) {}"}); err != nil {
		t.Fatal(err)
	}
	src := `
		function event_received(message) {
			var failures = 0;
			try { call_module(); } catch (e) { failures++; }
			try { call_module(7); } catch (e) { failures++; }
			try { call_module("next", 5); } catch (e) { failures++; }
			try { call_module("next", {frame_ref: "bad"}); } catch (e) { failures++; }
			// A payload that contains itself fails the call; it used to
			// overflow the host's stack.
			var a = []; push(a, a);
			try { call_module("next", {v: a}); } catch (e) { failures++; }
			try { call_service("s", {v: a}); } catch (e) { failures++; }
			try { log(a); } catch (e) { failures++; }
			metric("failures", failures);
		}
	`
	m, _ := d.SpawnModule(ModuleSpec{Name: "m", Source: src, Next: []Route{{Module: "next"}}})
	m.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.failures").Count() == 1 })
	if got := d.Metrics().Histogram("stage.failures").Mean(); got != 7*time.Millisecond {
		t.Errorf("call_module validation failures = %v, want 7 (as ms)", got)
	}
}

func TestModuleUpdateSourceHotSwap(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	v1 := `
		var inits = 0;
		function init() { inits++; metric("v1_init", 1); }
		function event_received(message) { metric("v1_events", 1); }
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "hot", Source: v1})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	ctx := context.Background()
	m.Inject(ctx, nil, nil)
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.v1_events").Count() == 1 })

	// A syntactically broken update must be rejected without disturbing
	// the running code.
	if err := m.UpdateSource("var broken = ;"); err == nil {
		t.Error("broken update accepted")
	}
	if err := m.UpdateSource(""); err == nil {
		t.Error("empty update accepted")
	}
	m.Inject(ctx, nil, nil)
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.v1_events").Count() == 2 })

	// A valid update swaps behaviour and runs the new init().
	v2 := `
		function init() { metric("v2_init", 1); }
		function event_received(message) { metric("v2_events", 1); }
	`
	if err := m.UpdateSource(v2); err != nil {
		t.Fatalf("UpdateSource: %v", err)
	}
	waitFor(t, func() bool { return d.Metrics().Meter("module.hot.updates").Count() == 1 })
	if got := d.Metrics().Histogram("stage.v2_init").Count(); got != 1 {
		t.Errorf("new init ran %d times, want 1", got)
	}
	m.Inject(ctx, nil, nil)
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.v2_events").Count() == 1 })
	if got := d.Metrics().Histogram("stage.v1_events").Count(); got != 2 {
		t.Errorf("old code still running: v1_events = %d", got)
	}
}

func TestModuleUpdateKeepsEndpointAndRoutes(t *testing.T) {
	nw := testNet()
	phone := newDevice(t, nw, "phone", Phone)
	desktop := newDevice(t, nw, "desktop", Desktop)

	recv, err := desktop.SpawnModule(ModuleSpec{
		Name:   "recv",
		Source: `function event_received(m) { metric("received", m.tag); }`,
	})
	if err != nil {
		t.Fatal(err)
	}
	send, err := phone.SpawnModule(ModuleSpec{
		Name:   "send",
		Source: `function event_received(m) { call_module("recv", {tag: 1}); }`,
		Next:   []Route{{Module: "recv", Address: recv.Addr().String()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	send.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool { return desktop.Metrics().Histogram("stage.received").Count() == 1 })

	// After the hot swap the same DAG edge still routes.
	if err := send.UpdateSource(`function event_received(m) { call_module("recv", {tag: 2}); }`); err != nil {
		t.Fatalf("UpdateSource: %v", err)
	}
	waitFor(t, func() bool { return phone.Metrics().Meter("module.send.updates").Count() == 1 })
	send.Inject(context.Background(), nil, nil)
	waitFor(t, func() bool { return desktop.Metrics().Histogram("stage.received").Count() == 2 })
	if got := desktop.Metrics().Histogram("stage.received").Max(); got != 2*time.Millisecond {
		t.Errorf("updated sender's tag = %v, want 2ms", got)
	}
}

func TestDevicePauseFreezesModulesAndPools(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	if _, err := d.DeployService(echoSpec("svc"), 1); err != nil {
		t.Fatalf("DeployService: %v", err)
	}
	src := `
		function event_received(message) { metric("handled", 1); }
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}

	if err := m.Inject(context.Background(), nil, nil); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.handled").Count() == 1 })

	if d.Paused() {
		t.Error("fresh device reports paused")
	}
	d.Pause()
	if !d.Paused() {
		t.Error("Paused() false after Pause")
	}

	// Events injected during the pause are held, not processed.
	if err := m.Inject(context.Background(), nil, nil); err != nil {
		t.Fatalf("Inject while paused: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	if got := d.Metrics().Histogram("stage.handled").Count(); got != 1 {
		t.Errorf("paused module handled %d events, want 1 (pre-pause only)", got)
	}

	// Hosted pools are frozen too: a bounded call fails on deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	if _, err := d.CallService(ctx, "svc", nil, nil); err == nil {
		t.Error("service call on a paused device succeeded")
	}
	cancel()

	// Resume: the held event drains and new work flows.
	d.Resume()
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.handled").Count() == 2 })
	if _, err := d.CallService(context.Background(), "svc", nil, nil); err != nil {
		t.Errorf("service call after resume: %v", err)
	}
	if d.Paused() {
		t.Error("Paused() true after Resume")
	}
}

func TestModulePausedCloseReleasesHeldFrame(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		function event_received(message) { frame_done(); }
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	d.Pause()
	if err := m.Inject(context.Background(), nil, frame.MustNew(16, 16)); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	time.Sleep(30 * time.Millisecond)
	// Closing a paused module must not deadlock or leak the held frame.
	m.Close()
	d.Resume()
	waitFor(t, func() bool { return d.Store().Len() == 0 })
}

func TestModuleAbandonedFrameReturnsCredit(t *testing.T) {
	nw := testNet()
	d := newDevice(t, nw, "desktop", Desktop)
	src := `
		function event_received(message) {
			if (message.fail) { boom(); } // undefined function: runtime error
			frame_done();
		}
	`
	m, err := d.SpawnModule(ModuleSpec{Name: "m", Source: src})
	if err != nil {
		t.Fatalf("SpawnModule: %v", err)
	}
	var done, abandoned atomic.Int64
	m.SetFrameDone(func(time.Duration) { done.Add(1) })
	m.SetFrameAbandoned(func() { abandoned.Add(1) })

	if err := m.Inject(context.Background(), map[string]any{"fail": true}, frame.MustNew(8, 8)); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return abandoned.Load() == 1 })
	if done.Load() != 0 {
		t.Errorf("frame_done fired on a failing event: %d", done.Load())
	}

	// A successful event fires frame_done, not the abandoned hook.
	if err := m.Inject(context.Background(), nil, frame.MustNew(8, 8)); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return done.Load() == 1 })
	if abandoned.Load() != 1 {
		t.Errorf("abandoned fired on a successful event: %d", abandoned.Load())
	}

	// An error without a frame returns no credit (nothing was consumed).
	if err := m.Inject(context.Background(), map[string]any{"fail": true}, nil); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	waitFor(t, func() bool { return d.Metrics().Meter("module.m.errors").Count() == 2 })
	if abandoned.Load() != 1 {
		t.Errorf("frameless error returned a credit: %d", abandoned.Load())
	}
	if got := d.Metrics().Meter("module.m.abandoned").Count(); got != 1 {
		t.Errorf("abandoned meter = %d, want 1", got)
	}
}
