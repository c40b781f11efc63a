package device

import (
	"context"
	"strings"
	"testing"
	"time"

	"videopipe/internal/frame"
	"videopipe/internal/script"
	"videopipe/internal/services"
)

// A module's call_module and call_service borrow an object literal written
// as their message (script.Signature.Lends): the site's scratch object is
// filled, lent for the call and emptied after it. These tests hold the
// device's side of that contract: nothing keeps the lent object past the
// call, a handler that hands it back leaves the module what it returned,
// and the replicated contexts and a hot swap each keep their own.

const (
	// lendStageSrc sends a literal whose fields all derive from seq, after
	// a service call that overlaps the other replicas' events.
	lendStageSrc = `function event_received(m) {
		call_service("work", {seq: m.seq, ms: 1 + m.seq % 3});
		call_module("sink", {frame_ref: m.frame_ref, seq: m.seq, double: m.seq * 2, tag: "t" + m.seq});
	}`
	// lendSinkSrc throws unless each message is the one its seq says and
	// the seqs arrive in order.
	lendSinkSrc = `var last = -1;
	function event_received(m) {
		if (m.seq <= last) { throw "seq " + m.seq + " after " + last; }
		if (m.double != m.seq * 2 || m.tag != "t" + m.seq || len(keys(m)) != 4) { throw "message " + json_encode(m); }
		last = m.seq;
		frame_done();
	}`
)

// lendStage spawns stage -> a checking sink with the sleeper deployed.
func lendStage(t *testing.T, stage string, window int64) (*Device, *Module, *creditWindow) {
	t.Helper()
	d := newDevice(t, testNet(), "desktop", Desktop)
	if _, err := d.DeployService((&sleeper{}).spec("work"), 1); err != nil {
		t.Fatal(err)
	}
	sink, err := d.SpawnModule(ModuleSpec{Name: "sink", Source: lendSinkSrc})
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.SpawnModule(ModuleSpec{Name: "stage", Source: stage, Services: []string{"work"}, Next: []Route{{Module: "sink"}}})
	if err != nil {
		t.Fatal(err)
	}
	credits := watchCredits(sink, window)
	m.SetFrameAbandoned(func() { credits.avail.Add(1) })
	return d, m, credits
}

// lendErrors reports the events that failed on either module.
func lendErrors(d *Device) uint64 {
	return d.reg.Meter("module.sink.errors").Count() + d.reg.Meter("module.stage.errors").Count()
}

// Four contexts each lend their own scratch: under -race a scratch shared
// between replicas, or one a delivered event still held, would be a
// reported race, and the sink would see a message another event filled.
func TestLendAcrossReplicatedContexts(t *testing.T) {
	const window, frames = 10, 200
	d, m, credits := lendStage(t, lendStageSrc, window)
	if len(m.workers) != statelessReplicas {
		t.Fatalf("stage runs on %d contexts, want %d", len(m.workers), statelessReplicas)
	}
	offerBursts(t, m, credits, window, frames)
	if errs := lendErrors(d); errs != 0 {
		t.Errorf("%d events failed: a message changed after its send (last: %s)", errs, m.LastError()+d.modules["sink"].LastError())
	}
	if done := d.reg.Meter("pipeline.sink.frames_done").Count(); done != frames {
		t.Errorf("frames_done = %d, want %d", done, frames)
	}
}

// A hot swap replaces the contexts and so the literal sites: events before
// and after it each arrive whole.
func TestLendAcrossHotSwap(t *testing.T) {
	const window, frames = 10, 200
	d, m, credits := lendStage(t, lendStageSrc, window)
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		time.Sleep(100 * time.Millisecond)
		for {
			err := m.UpdateSource(strings.Replace(lendStageSrc, `tag: "t" + m.seq`, `tag: "t" + str(m.seq)`, 1))
			if err == nil {
				return
			}
			if !strings.Contains(err.Error(), "pending") {
				t.Errorf("UpdateSource: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	offerBursts(t, m, credits, window, frames)
	<-swapped
	waitFor(t, func() bool { return d.reg.Meter("module.stage.updates").Count() == 1 })
	for seq := frames; seq < frames+window; seq++ {
		credits.avail.Add(-1)
		if err := queue(m, objectOf(map[string]script.Value{"seq": float64(seq)}), frame.MustNewPooled(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return credits.avail.Load() == window })
	if errs := lendErrors(d); errs != 0 {
		t.Errorf("%d events failed across the swap", errs)
	}
	if done := d.reg.Meter("pipeline.sink.frames_done").Count(); done != frames+window {
		t.Errorf("frames_done = %d, want %d", done, frames+window)
	}
}

// A co-located handler may hand its arguments back (services.Request): as a
// field of its result, with a container of theirs beside it. The module
// keeps what it got back however many calls the same literal site makes
// after — a writer gets the lent object itself, which the site then gives
// up, and a read-only module gets clones (script.Unalias), so the site
// keeps its scratch.
func TestLendServiceHandBack(t *testing.T) {
	d := newDevice(t, testNet(), "desktop", Desktop)
	_, err := d.DeployService(services.Spec{
		Name: "handback",
		Handler: func(_ context.Context, req services.Request) (services.Response, error) {
			return services.Response{Result: map[string]script.Value{
				"args": req.Args, "pose": req.Args.Get("pose"), "n": req.Args.Get("n"),
			}}, nil
		},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const body = `function get(n) { return call_service("handback", {n: n, pose: {kps: [n, n + 1]}}); }
	function event_received(m) {
		var r1 = get(1);
		var r2 = get(2);
		var r3 = get(3);
		if (r1.args == r2.args || r2.args == r3.args) { throw "two calls handed back one object"; }
		if (r1.args.n != 1 || r2.args.n != 2 || r3.args.n != 3 || r1.n != 1) { throw "handed back " + json_encode([r1, r2, r3]); }
		if (r1.pose.kps[1] != 2 || r2.args.pose.kps[0] != 2 || len(keys(r1.args)) != 2) { throw "handed back " + json_encode([r1, r2]); }
		metric("handback", 1);
	`
	for name, src := range map[string]string{
		"writer":    body + "m.seen = true; }",
		"read-only": body + "}",
	} {
		t.Run(name, func(t *testing.T) {
			mod, err := d.SpawnModule(ModuleSpec{Name: "caller_" + strings.Replace(name, "-", "_", 1), Source: src, Services: []string{"handback"}})
			if err != nil {
				t.Fatal(err)
			}
			if ro := mod.workers[0].ctx.ReadOnly(); ro != (name == "read-only") {
				t.Fatalf("read-only verdict %v", ro)
			}
			before := d.reg.Histogram("stage.handback").Count()
			const events = 5
			for i := 0; i < events; i++ {
				if err := queue(mod, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			errs := d.reg.Meter("module." + mod.spec.Name + ".errors")
			waitFor(t, func() bool { return d.reg.Histogram("stage.handback").Count()-before+errs.Count() == events })
			if errs.Count() != 0 {
				t.Errorf("%d of %d events failed: %s", errs.Count(), events, mod.LastError())
			}
		})
	}
}
