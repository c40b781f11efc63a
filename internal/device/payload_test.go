package device

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videopipe/internal/clock"
	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/services"
	"videopipe/internal/vision"
)

// Who owns a payload (DESIGN.md §7): call_module snapshots the message at
// send — sharing what is nested in it when neither side writes —,
// call_service lends it until the handler returns, a result is the
// caller's. Run under -race, these tests are also the proof that the rules
// leave no mutable value shared between goroutines.

// TestCallModuleSnapshotsAtSend: a sender that rewrites its message — and a
// pose nested in it — the moment call_module returns is not observed by the
// receivers, and fan-out gives each receiver a copy of its own to write to.
func TestCallModuleSnapshotsAtSend(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	receiver := `
		function event_received(m) {
			if (m.n != 1 || len(m.pose.kps) != 2 || m.pose.kps[0].x != 1 || m.pose.kps[1].x != 2) {
				throw "receiver saw a write made after the send";
			}
			m.n = -1;
			m.pose.kps[0].x = -1;
			push(m.pose.kps, {x: -3});
			metric("received", 1);
		}
	`
	for _, name := range []string{"a", "b"} {
		if _, err := d.SpawnModule(ModuleSpec{Name: name, Source: receiver}); err != nil {
			t.Fatal(err)
		}
	}
	sender, err := d.SpawnModule(ModuleSpec{
		Name: "sender",
		Source: `
			function event_received(m) {
				var pose = {kps: [{x: 1}, {x: 2}]};
				var msg = {pose: pose, n: 1};
				call_module("a", msg);
				call_module("b", msg);
				msg.n = 2;
				pose.kps[0].x = 100;
				push(pose.kps, {x: 3});
				if (len(pose.kps) != 3 || msg.n != 2) { throw "sender lost its own message"; }
			}
		`,
		Next: []Route{{Module: "a"}, {Module: "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const events = 40
	for i := 0; i < events; i++ {
		if err := queue(sender, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return d.reg.Histogram("stage.received").Count() == 2*events })
	for _, name := range []string{"sender", "a", "b"} {
		if n := d.reg.Meter("module." + name + ".errors").Count(); n != 0 {
			t.Errorf("module %s raised %d errors: a message was shared across contexts", name, n)
		}
	}
}

// TestCallModuleSharesReadOnlyPayloads: a read-only sender fans one pose
// out to two read-only receivers and to a local service that reads it, and
// all four hold the very same object; a receiver that writes gets a copy of
// its own, and so does one that an UpdateSource turns into a writer while
// shared events are still queued for it. The sender keeps its last eight
// poses and checks them every event, so a write that reached a shared value
// shows there — and, under -race, as a reported race.
func TestCallModuleSharesReadOnlyPayloads(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	type seen struct {
		seq float64
		who string
	}
	var mu sync.Mutex
	poses := make(map[seen]*script.Object)
	_, err := d.DeployService(services.Spec{
		Name: "reader",
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			pose := req.Args.Get("pose").(*script.Object)
			sum := 0.0
			for _, kp := range pose.Get("kps").(*script.Array).Elems {
				sum += kp.(*script.Object).Get("x").(float64)
			}
			if sum != 3 {
				return services.Response{}, fmt.Errorf("keypoints sum to %v, want 3", sum)
			}
			mu.Lock()
			poses[seen{req.Args.Get("seq").(float64), req.Args.Get("who").(string)}] = pose
			mu.Unlock()
			return services.Response{Result: map[string]script.Value{}}, nil
		},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.DeployService(services.Spec{
		Name: "slow",
		Handler: func(context.Context, services.Request) (services.Response, error) {
			time.Sleep(time.Millisecond)
			return services.Response{Result: map[string]script.Value{}}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reader := func(who string) string {
		return `
			function event_received(m) {
				if (len(m.pose.kps) != 2 || m.pose.kps[0].x != 1 || m.pose.kps[1].x != 2) {
					throw "a read-only receiver saw a write";
				}
				call_service("reader", {pose: m.pose, seq: m.seq, who: "` + who + `"});
				metric("shared_` + who + `", 1);
			}
		`
	}
	writer := func(who string) string {
		return `
			function event_received(m) {
				if (len(m.pose.kps) != 2 || m.pose.kps[0].x != 1) { throw "a writer saw another's write"; }
				m.pose.kps[0].x = -1;
				push(m.pose.kps, {x: -3});
				metric("copied_` + who + `", 1);
			}
		`
	}
	slowReader := `
		function event_received(m) {
			call_service("slow", {});
			if (m.pose.kps[0].x != 1) { throw "a read-only receiver saw a write"; }
			metric("shared_d", 1);
		}
	`
	for _, spec := range []ModuleSpec{
		{Name: "a", Source: reader("a"), Services: []string{"reader"}},
		{Name: "b", Source: reader("b"), Services: []string{"reader"}},
		{Name: "c", Source: writer("c")},
		{Name: "d", Source: slowReader, Services: []string{"slow"}},
	} {
		if _, err := d.SpawnModule(spec); err != nil {
			t.Fatal(err)
		}
	}
	sender, err := d.SpawnModule(ModuleSpec{
		Name: "sender", Services: []string{"reader"},
		Source: `
			var recent = [];
			function event_received(m) {
				push(recent, m.pose);
				if (len(recent) > 8) { shift(recent); }
				for (var p of recent) {
					if (len(p.kps) != 2 || p.kps[0].x != 1 || p.kps[1].x != 2) {
						throw "a receiver's write reached the sender";
					}
				}
				call_module("a", {pose: m.pose, seq: m.seq});
				call_module("b", {pose: m.pose, seq: m.seq});
				call_module("c", {pose: m.pose, seq: m.seq});
				call_module("d", {pose: m.pose, seq: m.seq});
				call_service("reader", {pose: m.pose, seq: m.seq, who: "sender"});
			}
		`,
		Next: []Route{{Module: "a"}, {Module: "b"}, {Module: "c"}, {Module: "d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"sender": true, "a": true, "b": true, "c": false, "d": true} {
		if m, _ := d.Module(name); m.workers[0].ctx.ReadOnly() != want {
			t.Fatalf("module %s: read-only %v, want %v", name, !want, want)
		}
	}

	const events = 200
	hist := func(name string) int { return int(d.reg.Histogram("stage." + name).Count()) }
	done := make(chan error, 1)
	go func() {
		for i := 0; i < events; i++ {
			body := objectOf(map[string]script.Value{
				"seq":  float64(i),
				"pose": script.FromGo(map[string]any{"kps": []any{map[string]any{"x": 1.0}, map[string]any{"x": 2.0}}}),
			})
			if err := queue(sender, body, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Swap d for code that writes while the sender is blocked on its full
	// inbox: the queued event was shared by a read-only sender.
	waitFor(t, func() bool { return hist("shared_d") >= events/4 })
	dm, _ := d.Module("d")
	if err := dm.UpdateSource(writer("d")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return hist("shared_a") == events && hist("shared_b") == events && hist("copied_c") == events &&
			hist("shared_d")+hist("copied_d") == events
	})
	if hist("copied_d") == 0 {
		t.Error("no event reached d's writing code")
	}
	for _, name := range []string{"sender", "a", "b", "c", "d"} {
		if n := d.reg.Meter("module." + name + ".errors").Count(); n != 0 {
			m, _ := d.Module(name)
			t.Errorf("module %s raised %d errors, the last: %s", name, n, m.LastError())
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < events; i++ {
		want := poses[seen{float64(i), "sender"}]
		if want == nil || poses[seen{float64(i), "a"}] != want || poses[seen{float64(i), "b"}] != want {
			t.Fatalf("event %d: the sender, a and b read poses %p, %p, %p; want one shared object",
				i, want, poses[seen{float64(i), "a"}], poses[seen{float64(i), "b"}])
		}
	}
}

// TestCallServiceEchoToReadOnlyCaller: a handler may hand an argument back
// in its result, but a read-only caller must not get a container it keeps
// to itself back as a value it can pass on — its window, here, which it
// keeps changing while the receiver reads what it was sent.
func TestCallServiceEchoToReadOnlyCaller(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	_, err := d.DeployService(services.Spec{
		Name: "echo",
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			return services.Response{Result: map[string]script.Value{"poses": req.Args.Get("poses"), "n": 1.0}}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "r", Source: `
		function event_received(m) {
			var sum = 0;
			for (var x of m.w) { sum = sum + x; }
			metric("echoed", len(m.w));
		}
	`}); err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{
		Name: "window", Services: []string{"echo"}, Next: []Route{{Module: "r"}},
		Source: `
			var window = [];
			function event_received(m) {
				push(window, m.n);
				if (len(window) > 4) { shift(window); }
				var r = call_service("echo", {poses: window});
				if (r.poses == window || len(r.poses) != len(window)) { throw "the caller's window came back as a result value"; }
				call_module("r", {w: r.poses});
			}
		`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.workers[0].ctx.ReadOnly() {
		t.Fatal("the window module is not read-only")
	}
	const events = 100
	for i := 0; i < events; i++ {
		if err := queue(m, objectOf(map[string]script.Value{"n": float64(i)}), nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return d.reg.Histogram("stage.echoed").Count() == events })
	if n := d.reg.Meter("module.window.errors").Count(); n != 0 {
		t.Errorf("%d errors, the last: %s", n, m.LastError())
	}
}

// TestCallServiceLendsArguments: the handler reads the message's own
// objects; after the call the module's message is intact, frame_ref
// included, and the module may change it again; each call's result is a
// distinct object the module owns.
func TestCallServiceLendsArguments(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	_, err := d.DeployService(services.Spec{
		Name: "inspect",
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			_, sawRef := req.Args.Lookup("frame_ref")
			sum := 0.0
			for _, kp := range req.Args.Get("pose").(*script.Object).Get("kps").(*script.Array).Elems {
				sum += kp.(*script.Object).Get("x").(float64)
			}
			return services.Response{Result: map[string]script.Value{
				"sum": sum, "saw_ref": sawRef, "has_frame": req.Frame != nil, "echo": req.Args.Get("pose"),
			}}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{
		Name: "caller", Services: []string{"inspect"},
		Source: `
			function event_received(m) {
				var pose = {kps: [{x: 1}, {x: 2}]};
				var msg = {frame_ref: m.frame_ref, pose: pose, tag: "t"};
				var r1 = call_service("inspect", msg);
				if (msg.frame_ref != m.frame_ref || msg.tag != "t" || msg.pose != pose || len(msg) != 3) {
					throw "call_service changed the caller's message";
				}
				pose.kps[0].x = 5;
				var r2 = call_service("inspect", msg);
				if (r1 == r2) { throw "two calls returned one result object"; }
				if (r1.sum != 3 || r2.sum != 7) { throw "sums " + r1.sum + ", " + r2.sum; }
				if (r1.saw_ref || !r1.has_frame) { throw "frame_ref reached the handler, or the frame did not"; }
				if (r1.echo != pose) { throw "an argument handed back in the result is not the caller's own"; }
				r1.sum = 0;
				if (r2.sum != 7) { throw "results alias each other"; }
				metric("lent", 1);
			}
		`,
	})
	if err != nil {
		t.Fatal(err)
	}
	const events = 20
	for i := 0; i < events; i++ {
		if err := queue(m, nil, frame.MustNew(4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return d.reg.Meter("module.caller.events").Count() == events })
	if got := d.reg.Histogram("stage.lent").Count(); got != events {
		t.Errorf("%d of %d events passed the lending checks (errors: %d)", got, events,
			d.reg.Meter("module.caller.errors").Count())
	}
}

// TestOutputChargeFrameRefAsymmetry pins the two charges to the byte:
// call_service pays for the frame_ref field it carries, call_module does
// not (the reference is the runtime's, not the module's output).
func TestOutputChargeFrameRefAsymmetry(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	if _, err := d.DeployService(echoSpec("echo"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SpawnModule(ModuleSpec{Name: "sink", Source: `function event_received(m) {}`}); err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{
		Name: "emitter", Services: []string{"echo"}, Next: []Route{{Module: "sink"}},
		Limits: script.Limits{Output: 1 << 20},
		Source: `
			function event_received(m) {
				if (m.via == "module") { call_module("sink", m.msg); } else { call_service("echo", m.msg); }
			}
		`,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.Store().Put(frame.MustNew(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// {a: 1}: 48 + (16 + 1 + 8) = 73; a numeric frame_ref adds 16 + 9 + 8.
	plain := map[string]any{"a": 1.0}
	withRef := map[string]any{"a": 1.0, "frame_ref": float64(id)}
	for _, tc := range []struct {
		via  string
		msg  map[string]any
		want int64
	}{
		{"module", plain, 73}, {"service", plain, 73},
		{"module", withRef, 73}, {"service", withRef, 73 + 33},
		{"module", nil, 48}, {"service", nil, 48},
	} {
		m.workers[0].outputUsed = 0
		event := map[string]any{"via": tc.via}
		if tc.msg != nil {
			event["msg"] = tc.msg
		}
		if err := callEvent(t, m, event); err != nil {
			t.Fatalf("%s %v: %v", tc.via, tc.msg, err)
		}
		if m.workers[0].outputUsed != tc.want {
			t.Errorf("call via %s of %v charged %d bytes, want %d", tc.via, tc.msg, m.workers[0].outputUsed, tc.want)
		}
	}
	// The limit falls exactly where the charge says: 73 fits, 72 does not.
	for _, tc := range []struct {
		limit  int64
		breach bool
	}{{73, false}, {72, true}} {
		m.limits.Output, m.workers[0].outputUsed = tc.limit, 0
		err := callEvent(t, m, map[string]any{"via": "module", "msg": withRef})
		var be *script.BudgetError
		if errors.As(err, &be) != tc.breach {
			t.Errorf("output limit %d: err = %v, want breach %v", tc.limit, err, tc.breach)
		}
	}
}

// TestModuleOutputBudgetStopsExponentialPayload is the sandbox-escape
// reproducer: a = [a, a] n times is 2n+1 script allocations, well inside
// every budget, whose tree has 2^n leaves. Emitting it — through either host
// call, log, or json_encode — must breach at the budget, in time and host
// memory proportional to the budget, not to the tree: 4 million leaves and
// 10^18 cost the same.
func TestModuleOutputBudgetStopsExponentialPayload(t *testing.T) {
	limits := script.Limits{Instructions: 50000, Memory: 1 << 20, Output: 256 << 10}
	for _, emit := range []string{`call_service("echo", {v: a})`, `call_module("sink", {v: a})`, `json_encode(a)`, `log(a)`} {
		for _, doublings := range []int{22, 60} {
			d := newDevice(t, testNet(), "desktop", Desktop)
			if _, err := d.DeployService(echoSpec("echo"), 1); err != nil {
				t.Fatal(err)
			}
			if _, err := d.SpawnModule(ModuleSpec{Name: "sink", Source: `function event_received(m) {}`}); err != nil {
				t.Fatal(err)
			}
			m, err := d.SpawnModule(ModuleSpec{
				Name: "hostile", Services: []string{"echo"}, Next: []Route{{Module: "sink"}}, Limits: limits,
				Source: fmt.Sprintf(`function event_received(m) { var a = [0]; for (var i = 0; i < %d; i++) { a = [a, a]; } %s; }`, doublings, emit),
			})
			if err != nil {
				t.Fatal(err)
			}
			// The time bound is wall clock on a shared machine: take the
			// best of three events. The memory bound holds on every one.
			// (Under -race both are logged, not enforced; the breach is.)
			best := time.Hour
			for try := 0; try < 3; try++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				start := time.Now()
				m.workers[0].outputUsed = 0
				err := callEvent(t, m, nil)
				best = min(best, time.Since(start))
				runtime.ReadMemStats(&after)
				var be *script.BudgetError
				if !errors.As(err, &be) || be.Used <= be.Limit {
					t.Fatalf("%s at %d doublings: err = %v, want a budget breach", emit, doublings, err)
				}
				t.Logf("%s at %d doublings: %d KiB, %v", emit, doublings, (after.TotalAlloc-before.TotalAlloc)>>10, time.Since(start))
				if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 && !raceEnabled {
					t.Errorf("%s at %d doublings: host allocated %d KiB before the breach, want under 4 MiB", emit, doublings, alloc>>10)
				}
			}
			if best > 50*time.Millisecond && !raceEnabled {
				t.Errorf("%s at %d doublings: breach took %v, want under 50 ms", emit, doublings, best)
			}
			d.Close()
		}
	}
}

// fitnessServices deploys the real pose detector, activity classifier and
// rep counter (small training corpus, negligible simulated cost) on d.
func fitnessServices(t *testing.T, d *Device) {
	t.Helper()
	opts := services.DefaultOptions()
	opts.PoseCost, opts.ActivityCost, opts.RepCost = time.Microsecond, time.Microsecond, time.Microsecond
	opts.DatasetConfig = vision.DefaultDatasetConfig()
	opts.DatasetConfig.SequencesPerActivity, opts.DatasetConfig.FramesPerSequence = 4, 45
	reg, err := services.NewStandardRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{services.PoseDetector, services.ActivityClassifier, services.RepCounter} {
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

// TestCallServiceRestoresFrameRef: call_service lends the handler the
// module's own message with frame_ref taken out, and puts the same number
// back however the call ends — a result, a handler error or the call's
// deadline.
func TestCallServiceRestoresFrameRef(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	var sawRef atomic.Bool
	_, err := d.DeployService(services.Spec{
		Name: "lend",
		Handler: func(ctx context.Context, req services.Request) (services.Response, error) {
			if _, has := req.Args.Lookup(frameRefKey); has || req.Frame == nil {
				sawRef.Store(true)
			}
			switch req.Args.Get("mode") {
			case "fail":
				return services.Response{}, errors.New("handler failed")
			case "hang":
				<-ctx.Done()
				return services.Response{}, ctx.Err()
			}
			return services.Response{Result: map[string]script.Value{"ok": true}}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{Name: "caller", Services: []string{"lend"}, Source: `function event_received(m) {}`})
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.store.Put(frame.MustNew(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer d.store.Release(id)
	// A worker of the test's own, so its call deadline can be short.
	w := &worker{m: m, calls: clock.NewDeadline(context.Background(), 50*time.Millisecond)}
	defer w.calls.Close()
	for _, tc := range []struct {
		mode string
		want error
	}{{"ok", nil}, {"fail", errors.New("handler failed")}, {"hang", context.DeadlineExceeded}} {
		msg := objectOf(map[string]script.Value{frameRefKey: float64(id), "mode": tc.mode, "n": 1.0})
		_, err := w.hostCallService([]script.Value{"lend", msg})
		switch {
		case tc.want == nil && err != nil,
			tc.want != nil && err == nil,
			tc.want == context.DeadlineExceeded && !errors.Is(err, context.DeadlineExceeded):
			t.Errorf("%s: call ended with %v, want %v", tc.mode, err, tc.want)
		}
		if got, ok := msg.Num(frameRef); !ok || got != float64(id) || msg.Len() != 3 {
			t.Errorf("%s: after the call frame_ref is %v (a number: %v), %d fields; want %d and 3 fields",
				tc.mode, got, ok, msg.Len(), id)
		}
	}
	if sawRef.Load() {
		t.Error("the handler saw frame_ref, or no frame")
	}
}

// TestCallServiceResultOutlivesItsMap: call_service copies the handler's
// result map into the object it returns and hands the map back for a later
// call to refill, so a result the module keeps does not change when its
// map is reused — here by more calls than the recycler holds maps.
func TestCallServiceResultOutlivesItsMap(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	fitnessServices(t, d)
	m, err := d.SpawnModule(ModuleSpec{
		Name: "reps", Services: []string{services.RepCounter}, Source: `function event_received(m) {}`,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := m.workers[0]
	poses := squatPoses(100)
	state := script.Value("")
	var first script.Value
	var firstText string
	for i, p := range poses {
		r, err := w.hostCallService([]script.Value{services.RepCounter, objectOf(map[string]script.Value{"state": state, "pose": p})})
		if err != nil {
			t.Fatal(err)
		}
		state = r.(*script.Object).Get("state")
		if i == 0 {
			first = r
			if firstText, err = script.Stringify(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if text, _ := script.Stringify(first); text != firstText {
		t.Errorf("the first result changed after its map was recycled:\nnow  %s\nwas  %s", text, firstText)
	}
}
