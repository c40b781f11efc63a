package device

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

// Who owns a payload (DESIGN.md §7): call_module snapshots the message at
// send, call_service lends it until the handler returns, a result is the
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
		if err := sender.Inject(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return d.Metrics().Histogram("stage.received").Count() == 2*events })
	for _, name := range []string{"sender", "a", "b"} {
		if n := d.Metrics().Meter("module." + name + ".errors").Count(); n != 0 {
			t.Errorf("module %s raised %d errors: a message was shared across contexts", name, n)
		}
	}
}

// TestCallServiceLendsArguments: the handler — on the batch collector's
// goroutine, not the module's — reads the message's own objects; after the
// call the module's message is intact, frame_ref included, and its again to
// change; each call's result is a distinct object the module owns.
func TestCallServiceLendsArguments(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	pool, err := d.DeployService(services.Spec{
		Name: "inspect", MaxBatch: 2,
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			_, sawRef := req.Args["frame_ref"]
			sum := 0.0
			for _, kp := range req.Args["pose"].(*script.Object).Get("kps").(*script.Array).Elems {
				sum += kp.(*script.Object).Get("x").(float64)
			}
			return services.Response{Result: map[string]script.Value{
				"sum": sum, "saw_ref": sawRef, "has_frame": req.Frame != nil, "echo": req.Args["pose"],
			}}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBatching(2, time.Millisecond)
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
		if err := m.Inject(context.Background(), nil, frame.MustNew(4, 4)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return d.Metrics().Meter("module.caller.events").Count() == events })
	if got := d.Metrics().Histogram("stage.lent").Count(); got != events {
		t.Errorf("%d of %d events passed the lending checks (errors: %d)", got, events,
			d.Metrics().Meter("module.caller.errors").Count())
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
	limits := script.Limits{Instructions: 50000, Memory: 1 << 20, Output: 256 << 10, Timeout: 250 * time.Millisecond}
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
