//go:build !race

package device

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// raceEnabled reports whether the race detector is active.
const raceEnabled = false

// The host-call allocation pins (`make alloc`): a payload is converted
// nowhere on its way through a device, so what a host call allocates is its
// own small constant plus, for a local call_module, the one clone — not a
// multiple of the payload. They hold only without race instrumentation,
// hence the build tag.

// TestCallServiceWindowAllocs: the 15-pose window handed to the activity
// classifier every frame — ~700 objects when each call deep-copied it — is
// lent, message object and all, the classifier's feature vectors live on
// its stack and the result map is recycled, so a warm call costs the
// invocation, the message literal, the service-call bookkeeping and the
// three-field result object (5; the call's deadline is the worker's own,
// re-armed; 7 with a fresh result map, 23 when the vectors were slices).
func TestCallServiceWindowAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	fitnessServices(t, d)
	m, err := d.SpawnModule(ModuleSpec{
		Name: "activity", Services: []string{services.ActivityClassifier},
		Source: `
			var window = [];
			var seen = "";
			function event_received(m) {
				if (m.pose != null) { push(window, m.pose); return; }
				seen = call_service("activity_classifier", {poses: window}).activity;
			}
			function classified() { return seen; }
		`,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range squatPoses(vision.WindowSize) {
		msg := script.NewObject()
		msg.Set("pose", p)
		if _, err := m.workers[0].ctx.Call("event_received", msg); err != nil {
			t.Fatal(err)
		}
	}
	empty := script.NewObject()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.workers[0].ctx.Call("event_received", empty); err != nil {
			t.Fatal(err)
		}
	})
	if seen, _ := m.workers[0].ctx.Call("classified"); seen != "squat" {
		t.Fatalf("classified as %v, want squat", seen)
	}
	t.Logf("call_service(activity_classifier, 15-pose window): %.0f allocs", allocs)
	if allocs > 6 {
		t.Errorf("call_service with a 15-pose window: %.0f allocs, want <= 6", allocs)
	}
}

// TestCallServicePoseAllocs: a warm call_service("pose_detector",
// {frame_ref}) — the pose stage of every fitness frame — lends the message
// with frame_ref taken out and put back, detects with no allocation of its
// own and hands the result map back once its values are in the module's
// object, so the call costs the pose payload (6 containers, its numbers
// unboxed: TestPoseValueAllocs) and the result object: 7 (46 when the pose's
// numbers were boxed, ~62 with per-call stripe goroutines, a throwaway
// result map and a frame_ref-less copy of the message).
func TestCallServicePoseAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	fitnessServices(t, d)
	m, err := d.SpawnModule(ModuleSpec{
		Name: "pose", Services: []string{services.PoseDetector}, Source: `function event_received(m) {}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := frame.MustNew(480, 360)
	vision.RenderScene(f, vision.SynthesizePose(vision.Squat, 0.3, vision.DefaultSubject(), nil))
	id, err := d.store.Put(f)
	if err != nil {
		t.Fatal(err)
	}
	defer d.store.Release(id)
	msg := objectOf(map[string]script.Value{frameRefKey: float64(id)})
	args := []script.Value{services.PoseDetector, msg}
	w := m.workers[0]
	var result script.Value
	allocs := testing.AllocsPerRun(50, func() {
		if result, err = w.hostCallService(args); err != nil {
			t.Fatal(err)
		}
	})
	if found := result.(*script.Object).Get("found"); found != true || msg.Get(frameRefKey) != float64(id) || msg.Len() != 1 {
		t.Fatalf("found %v, message %d fields with frame_ref %v", found, msg.Len(), msg.Get(frameRefKey))
	}
	t.Logf("call_service(pose_detector, {frame_ref}): %.0f allocs", allocs)
	if allocs > 7 {
		t.Errorf("call_service(pose_detector, {frame_ref}): %.0f allocs, want <= 7", allocs)
	}
}

// repCounterMessage is the fitness rep_counter stage's message to display.
func repCounterMessage(pose script.Value) *script.Object {
	return objectOf(map[string]script.Value{
		"frame_ref": 0.0, "pose": pose, "activity": "squat", "reps": 3.0,
		"captured_ms": 1696300000123.5, "seq": 41.0,
	})
}

// sinkModule installs a module with no event loop under name: a test
// drains its inbox, so only the sender's side of a hand-over is counted.
func sinkModule(t *testing.T, d *Device, name string) *Module {
	t.Helper()
	sink := &Module{events: make(chan event, 1), done: make(chan struct{})}
	d.mu.Lock()
	d.modules[name] = sink
	d.mu.Unlock()
	t.Cleanup(func() { d.DropModule(name) })
	return sink
}

// TestCallModuleSendAllocs: a local send from a module that writes its
// message costs one clone of it — a clone of its pose (6 allocations: one
// per object or array, two for the keypoint array and two for its record
// run of 17 keypoints) and one for the message itself, whose numbers,
// frame_ref among them, are copied unboxed. A read-only sender's
// send to a sink that writes its message costs the same once the sink has
// copied what the sender shared. A read-only module whose handler sends
// the message as an object literal pays for the copy alone: the literal is
// its call site's scratch. A remote send's body encoding, into the
// module's warm scratch, costs nothing.
func TestCallModuleSendAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	sink := sinkModule(t, d, "sink")
	spawn := func(name, src string) *worker {
		m, err := d.SpawnModule(ModuleSpec{
			Name: name, Source: src, Next: []Route{{Module: "sink"}}, Limits: script.Limits{Output: 1 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.workers[0]
	}
	writer := spawn("rep_counter", `function event_received(m) { m.seen = true; }`)
	reader := spawn("reader", `function event_received(m) {}`)
	if writer.ctx.ReadOnly() || !reader.ctx.ReadOnly() {
		t.Fatalf("read-only verdicts %v and %v, want false and true", writer.ctx.ReadOnly(), reader.ctx.ReadOnly())
	}
	pose := squatPoses(1)[0]
	poseClone := testing.AllocsPerRun(50, func() {
		if _, err := script.Clone(pose); err != nil {
			t.Fatal(err)
		}
	})
	id, err := d.store.Put(frame.MustNew(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer d.store.Release(id)
	msg := repCounterMessage(pose)
	msg.Set(frameRefKey, float64(id))
	args := []script.Value{"sink", msg}
	send := func(w *worker, receipt bool) {
		w.outputUsed = 0
		if _, err := w.hostCallModule(args); err != nil {
			t.Fatal(err)
		}
		ev := <-sink.events
		d.store.Release(ev.frameID) // the reference retained for the sink
		if ref, _ := ev.body.Num(frameRef); ev.frameID != id || ref != float64(id) || ev.body.Len() != 6 {
			t.Fatalf("delivered frame %d, frame_ref %v, %d fields; want the sender's %d in all six", ev.frameID, ref, ev.body.Len(), id)
		}
		if ev.shared != w.ctx.ReadOnly() {
			t.Fatalf("event shared %v from a sender read-only %v", ev.shared, w.ctx.ReadOnly())
		}
		if receipt {
			if err := script.Unshare(ev.body); err != nil { // what a writing sink's worker does
				t.Fatal(err)
			}
		}
		if (ev.body.Get("pose") == pose) != (ev.shared && !receipt) {
			t.Fatalf("the sink's pose is the sender's: %v", ev.body.Get("pose") == pose)
		}
	}
	local := testing.AllocsPerRun(50, func() { send(writer, false) })
	received := testing.AllocsPerRun(50, func() { send(reader, true) })
	t.Logf("local call_module: %.0f allocs from a writer, %.0f to a writing sink, of which the pose clone is %.0f",
		local, received, poseClone)
	if poseClone > 6 {
		t.Errorf("pose clone: %.0f allocs, want <= 6", poseClone)
	}
	if local > poseClone+1 {
		t.Errorf("local call_module: %.0f allocs, want <= pose clone (%.0f) + 1", local, poseClone)
	}
	if received > poseClone+1 {
		t.Errorf("local call_module, copied on receipt: %.0f allocs, want <= pose clone (%.0f) + 1", received, poseClone)
	}

	relay := spawn("relay", `function event_received(m) {
		call_module("sink", {frame_ref: m.frame_ref, pose: m.pose, activity: m.activity, reps: m.reps, captured_ms: m.captured_ms, seq: m.seq});
	}`)
	event := []script.Value{msg}
	literal := testing.AllocsPerRun(50, func() {
		relay.outputUsed = 0
		if _, err := relay.ctx.Call("event_received", event...); err != nil {
			t.Fatal(err)
		}
		ev := <-sink.events
		d.store.Release(ev.frameID)
		if !ev.shared || ev.body.Get("pose") != pose || ev.body.Len() != 6 {
			t.Fatalf("delivered shared %v, %d fields, the sender's pose %v", ev.shared, ev.body.Len(), ev.body.Get("pose") == pose)
		}
	})
	t.Logf("read-only handler sending a literal: %.0f allocs", literal)
	if literal > 1 {
		t.Errorf("read-only handler sending a literal: %.0f allocs, want <= 1 (the copy)", literal)
	}

	remote := testing.AllocsPerRun(50, func() {
		body, err := writer.jsonEnc.AppendObject(writer.bodyBuf[:0], msg, frameRefKey)
		if err != nil {
			t.Fatal(err)
		}
		writer.bodyBuf = body
	})
	if remote != 0 {
		t.Errorf("remote call_module body encode: %.0f allocs, want 0", remote)
	}
}

// TestCallModuleShareAllocs: a read-only sender's local send of the fitness
// rep_counter message shares its pose and copies the message object alone —
// one allocation — and still refuses a message nested past
// script.MaxDepth with the error a clone gives, allocating nothing but the
// error.
func TestCallModuleShareAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	sink := sinkModule(t, d, "sink")
	var ws [2]*worker
	for i, src := range []string{`function event_received(m) {}`, `function event_received(m) { m.seen = true; }`} {
		m, err := d.SpawnModule(ModuleSpec{Name: fmt.Sprint("sender", i), Source: src, Next: []Route{{Module: "sink"}}})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = m.workers[0]
	}
	reader, writer := ws[0], ws[1]
	pose := squatPoses(1)[0]
	args := []script.Value{"sink", repCounterMessage(pose)}
	shared := testing.AllocsPerRun(50, func() {
		if _, err := reader.hostCallModule(args); err != nil {
			t.Fatal(err)
		}
		if ev := <-sink.events; !ev.shared || ev.body.Get("pose") != pose || ev.body.Len() != 5 {
			t.Fatalf("delivered shared %v, %d fields, the sender's pose %v", ev.shared, ev.body.Len(), ev.body.Get("pose") == pose)
		}
	})
	t.Logf("read-only local call_module of the rep_counter message: %.0f allocs", shared)
	if shared > 1 {
		t.Errorf("read-only local call_module: %.0f allocs, want <= 1 (the message object)", shared)
	}

	deep := script.NewObject()
	for v, i := script.Value(deep), 0; i < script.MaxDepth+1; i++ {
		next := script.NewObject()
		v.(*script.Object).Set("next", next)
		v = next
	}
	deepArgs := []script.Value{"sink", deep}
	_, want := writer.hostCallModule(deepArgs)
	var got error
	refused := testing.AllocsPerRun(10, func() { _, got = reader.hostCallModule(deepArgs) })
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("an over-deep message: shared path %v, copying path %v; want the same refusal", got, want)
	}
	if refused > 2 {
		t.Errorf("a refused over-deep shared send: %.0f allocs, want <= 2 (the wrapped error and its text)", refused)
	}
}

// TestRepCounterCallAllocs: the counter state crosses the call as a binary
// blob in base64, through scratch the handler keeps, so one call allocates
// its result — the state string and a three-field map — and little else.
func TestRepCounterCallAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	fitnessServices(t, d)
	poses := squatPoses(90)
	state := script.Value("")
	call := func(pose script.Value) {
		resp, err := d.CallService(context.Background(), services.RepCounter,
			objectOf(map[string]script.Value{"state": state, "pose": pose}), nil)
		if err != nil {
			t.Fatal(err)
		}
		state = resp.Result["state"]
	}
	// Frame 38 is the largest state the counter ever has (39 buffered
	// frames going out); by frame 60 it is fitted and the state is small.
	for frame, pose := range poses {
		if frame != 38 && frame != 60 {
			call(pose)
			continue
		}
		// Replayed from the same state: the first replay grows the handler's
		// scratch to this state's size, the measured ones reuse it.
		before := state
		replay := func() {
			state = before
			call(pose)
		}
		replay()
		after := state
		allocs := testing.AllocsPerRun(20, replay)
		replay() // AllocsPerRun moved to one P and back: warm this P's scratch again
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			replay()
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
		state = after
		t.Logf("rep_counter call at frame %d: %.0f allocs, %d bytes (state string %d bytes)", frame, allocs, bytes, len(after.(string)))
		if allocs > 10 {
			t.Errorf("rep_counter call at frame %d: %.0f allocs, want <= 10", frame, allocs)
		}
		// The state string is the caller's to keep, so it is the one thing a
		// call must allocate: 13.8 KiB (a 14 KiB size class) at the peak of
		// calibration, under 1 KiB once fitted.
		if limit := uint64(len(after.(string)) + 2<<10); bytes > limit {
			t.Errorf("rep_counter call at frame %d allocated %d bytes, want <= its %d-byte state string + 2 KiB", frame, bytes, len(after.(string)))
		}
	}
}

// TestLocalEventAllocs: the instruments a warm event touches — instruction
// meter, handle-time histogram, events and frames_done meters — are
// resolved once at spawn, and Context.Call reuses the context's top-level
// invocation state while the worker lends event_received its argument from
// a slot of its own, so a frame_done() event allocates nothing: looked up by
// name, the four instruments would cost one concatenation each. Nor does a
// frame event: its frame_ref goes into the body unboxed.
func TestLocalEventAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	m, err := d.SpawnModule(ModuleSpec{Name: "sink", Source: `function event_received(m) { frame_done(); }`})
	if err != nil {
		t.Fatal(err)
	}
	w, body := m.workers[0], script.NewObject()
	var ticket uint64
	handle := func() {
		w.handle(job{ev: event{body: body}, ticket: ticket})
		ticket++
	}
	for i := 0; i < 10000; i++ { // past the histogram's sample reservoir
		handle()
	}
	allocs := testing.AllocsPerRun(100, handle)
	t.Logf("warm frame_done() event: %.1f allocs", allocs)
	if allocs > 0 {
		t.Errorf("warm frame_done() event: %.1f allocs, want 0", allocs)
	}
	if w.args[0] != nil {
		t.Error("the worker's argument slot still holds the last event's message")
	}
	if n := d.reg.Meter("pipeline.sink.frames_done").Count(); n != ticket {
		t.Errorf("frames_done counted %d events, want %d", n, ticket)
	}

	// A frame event, whose body holds its id or not yet (a remote edge's
	// decoded body), sets its frame_ref without boxing it.
	id, err := d.store.Put(frame.MustNew(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer d.store.Release(id)
	for _, body := range []*script.Object{objectOf(map[string]script.Value{frameRefKey: float64(id)}), script.NewObjectSize(1)} {
		framed := testing.AllocsPerRun(100, func() {
			d.store.Retain(id) // the reference the event owns and releases
			w.handle(job{ev: event{body: body, frameID: id}, ticket: ticket})
			ticket++
		})
		if got, _ := body.Num(frameRef); framed > 0 || got != float64(id) {
			t.Errorf("warm frame event: %.1f allocs (want 0), frame_ref %v (want %d)", framed, got, id)
		}
	}
}
