//go:build !race

package device

import (
	"context"
	"runtime"
	"testing"
	"time"

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

// fitnessServices deploys the real activity classifier and rep counter
// (small training corpus, negligible simulated cost) on d.
func fitnessServices(t *testing.T, d *Device) {
	t.Helper()
	opts := services.DefaultOptions()
	opts.ActivityCost, opts.RepCost = time.Microsecond, time.Microsecond
	opts.DatasetConfig = vision.DefaultDatasetConfig()
	opts.DatasetConfig.SequencesPerActivity, opts.DatasetConfig.FramesPerSequence = 4, 45
	reg, err := services.NewStandardRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{services.ActivityClassifier, services.RepCounter} {
		spec, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeployService(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func squatPoses(n int) []script.Value {
	poses, _ := vision.SynthesizeSequence(vision.Squat, n, 15, 0.5, vision.DefaultSubject(), nil)
	out := make([]script.Value, n)
	for i, p := range poses {
		out[i] = poseValue(p)
	}
	return out
}

// TestCallServiceWindowAllocs: the 15-pose window handed to the activity
// classifier every frame — ~700 objects when each call deep-copied it — is
// lent, so a warm call costs the invocation, the message literal, the
// service-call bookkeeping and the three-field result.
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
	if seen, _ := m.workers[0].ctx.Global("seen"); seen != "squat" {
		t.Fatalf("classified as %v, want squat", seen)
	}
	t.Logf("call_service(activity_classifier, 15-pose window): %.0f allocs", allocs)
	if allocs > 40 {
		t.Errorf("call_service with a 15-pose window: %.0f allocs, want <= 40", allocs)
	}
}

// repCounterMessage is the fitness rep_counter stage's message to display.
func repCounterMessage(pose script.Value) *script.Object {
	return &script.Object{Fields: map[string]script.Value{
		"frame_ref": 0.0, "pose": pose, "activity": "squat", "reps": 3.0,
		"captured_ms": 1696300000123.5, "seq": 41.0,
	}}
}

// TestCallModuleSendAllocs: a local send costs one clone of the message —
// measured here as a clone of its pose plus a constant — and a remote
// send's body encoding, into the module's warm scratch, costs nothing.
func TestCallModuleSendAllocs(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	// A sink with no event loop: the test drains it, so only the sender's
	// side of the hand-over is counted.
	sink := &Module{events: make(chan event, 1), done: make(chan struct{})}
	d.mu.Lock()
	d.modules["sink"] = sink
	d.mu.Unlock()
	defer d.DropModule("sink")
	m, err := d.SpawnModule(ModuleSpec{
		Name: "rep_counter", Source: `function event_received(m) {}`, Next: []Route{{Module: "sink"}},
		Limits: script.Limits{Output: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	pose := squatPoses(1)[0]
	poseClone := testing.AllocsPerRun(50, func() {
		if _, err := script.Clone(pose); err != nil {
			t.Fatal(err)
		}
	})
	args := []script.Value{"sink", repCounterMessage(pose)}
	w := m.workers[0]
	local := testing.AllocsPerRun(50, func() {
		w.outputUsed = 0
		if _, err := w.hostCallModule(args); err != nil {
			t.Fatal(err)
		}
		if ev := <-sink.events; len(ev.body.Fields) != 5 {
			t.Fatalf("delivered %d fields, want the message without frame_ref", len(ev.body.Fields))
		}
	})
	t.Logf("local call_module: %.0f allocs, of which the pose clone is %.0f", local, poseClone)
	if local > poseClone+12 {
		t.Errorf("local call_module: %.0f allocs, want <= pose clone (%.0f) + 12", local, poseClone)
	}

	msg := args[1].(*script.Object)
	remote := testing.AllocsPerRun(50, func() {
		body, err := w.jsonEnc.AppendObject(w.bodyBuf[:0], msg, frameRefKey)
		if err != nil {
			t.Fatal(err)
		}
		w.bodyBuf = body
	})
	if remote != 0 {
		t.Errorf("remote call_module body encode: %.0f allocs, want 0", remote)
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
			map[string]script.Value{"state": state, "pose": pose}, nil)
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
		if allocs > 16 {
			t.Errorf("rep_counter call at frame %d: %.0f allocs, want <= 16", frame, allocs)
		}
		// The state string is the caller's to keep, so it is the one thing a
		// call must allocate: 13.8 KiB (a 14 KiB size class) at the peak of
		// calibration, under 1 KiB once fitted.
		if limit := uint64(len(after.(string)) + 2<<10); bytes > limit {
			t.Errorf("rep_counter call at frame %d allocated %d bytes, want <= its %d-byte state string + 2 KiB", frame, bytes, len(after.(string)))
		}
	}
}
