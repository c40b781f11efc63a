package script

import (
	"os"
	"path/filepath"
	"testing"
)

// payloadsOf is src's read-only verdict as `videopipe -lint` words it.
func payloadsOf(src string) string { return Analyze(src, Options{}).Facts.Payloads() }

// Each row is one way a module could write a container it does not own, or
// look as if it did: the verdict must name the first real write and must
// not be scared off by writes into containers the module keeps to itself.
func TestReadOnlyVerdict(t *testing.T) {
	const shares = "shares payloads"
	at := func(pos string) string { return "copies payloads: writes a container it does not own at " + pos }
	cases := []struct{ name, src, want string }{
		{"the fitness window", `var window = [];
function event_received(message) {
	push(window, message.pose);
	if (len(window) > 15) { shift(window); }
	var r = call_service("activity_classifier", {poses: window});
	call_module("rep_counter", {pose: message.pose, activity: r.activity});
}`, shares},
		{"a local object filled field by field", `function event_received(m) {
	var o = {n: 0}; o.n = m.n + 1; o["k"] += 2; o.n++;
	call_module("next", {n: o.n, k: o.k});
}`, shares},
		{"reads, tests, for-of and comparisons of a private container", `var seen = [];
function event_received(m) {
	pop(seen); unshift(seen, m.pose); remove({a: m.pose == seen[0]}, "a");
	for (var p of seen) { if (p == m.pose || !seen || len(seen) > 3) { log(p.x); } }
}`, shares},
		{"a literal message lent to call_service", `function event_received(m) {
	var req = {frame_ref: m.frame_ref};
	call_service("pose_detector", req);
	call_service("display", {frame_ref: m.frame_ref, pose: m.pose});
}`, shares},

		{"a private container rebound to fresh literals by statements", `var w = [];
function event_received(m) {
	w = [];
	for (var i = 0; i < 2; w = []) { push(w, i); i++; }
}`, shares},

		{"member assignment to the message", "function event_received(m) {\n\tm.n = -1;\n}", at("2:2")},
		{"++ on a member of the message", "function event_received(m) { m.n++; }", at("1:30")},
		{"compound assignment into a nested value", "function event_received(m) { m.pose.kps[0] += 1; }", at("1:30")},
		{"push into the message", "function event_received(m) { push(m.pose.kps, {x: 3}); }", at("1:35")},
		{"remove from the message", "function event_received(m) { remove(m, \"frame_ref\"); }", at("1:37")},
		{"a private container's element", "var w = [];\nfunction event_received(m) { push(w, m.pose); w[0].x = 1; }", at("2:47")},
		{"sort hands its argument back", "var w = [];\nfunction event_received(m) { sort(w); }", at("2:35")},
		{"a writing builtin taken as a value", "function event_received(m) { var f = push; f(m.kps, 1); }", at("1:38")},
		{"call_service lends a message it does not own", "function event_received(m) { call_service(\"svc\", m); }", at("1:50")},
		{"a container sent on is no longer private", `function event_received(m) {
	var msg = {n: 1};
	call_module("a", msg);
	msg.n = 2;
}`, at("4:2")},
		{"a container stored in another", "var a = [];\nvar b = [a];\nfunction event_received(m) { push(a, 1); }", at("3:35")},
		{"a container returned", "var w = [];\nfunction get() { return w; }\nfunction event_received(m) { push(w, 1); }", at("3:35")},
		{"a container passed to a function", "var w = [];\nfunction f(x) { return 1; }\nfunction event_received(m) { f(w); push(w, 1); }", at("3:41")},
		{"a container rebound to what it was handed", "var w = [];\nfunction event_received(m) { w = m.kps; push(w, 1); }", at("2:46")},
		{"an assignment's value sent on", "var w = [];\nfunction event_received(m) { call_module(\"next\", {w: w = []}); push(w, m.seq); }", at("2:69")},
		{"an assignment's value bound to another name", "var w = [];\nfunction event_received(m) { var y = (w = []); push(w, m.seq); }", at("2:53")},
		{"a chained assignment", "var w = [];\nvar a = [];\nfunction event_received(m) { a = w = []; push(w, m.seq); }", at("3:47")},
		{"an assignment's value returned", "var w = [];\nfunction f() { return w = []; }\nfunction event_received(m) { push(w, m.seq); }", at("3:35")},
		{"len rebound to a function of the module's", "var w = [];\nfunction event_received(m) { len = function(x) { return x; }; push(w, len(w)); }", at("2:68")},
		{"a parameter's member, even in a function never called", "function f(a) {\n\ta.x = 1;\n}\nfunction event_received(m) {}", at("2:2")},
		{"arguments", "function f() { arguments[0].x = 1; }\nfunction event_received(m) {}", at("1:16")},
		{"a for-of variable", "function event_received(m) { for (var p of m.kps) { p.x = 0; } }", at("1:53")},
		// The local `var push` has not executed when the call runs, so the
		// call reaches the builtin.
		{"shadowing falls through to the builtin", "function event_received(m) {\n\tpush(m.kps, 1);\n\tvar push = 0;\n}", at("2:7")},
		{"the earliest write is the one reported", "function a(x) { x.b = 1; }\nfunction event_received(m) { m.c = 1; }", at("1:17")},
	}
	for _, tc := range cases {
		if got := payloadsOf(tc.src); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
		// The context reaches the same verdict from the same pass.
		ctx := NewContext()
		costStub(ctx)
		if err := ctx.Load(tc.src); err == nil && ctx.ReadOnly() != (tc.want == shares) {
			t.Errorf("%s: Context.ReadOnly() = %v after Load", tc.name, ctx.ReadOnly())
		}
	}
}

// Every builtin that changes an argument in place is marked so in the one
// table: run on fresh arrays and objects, a builtin either leaves its
// arguments as they were or names the one it writes.
func TestReadOnlyKnowsEveryWritingBuiltin(t *testing.T) {
	for name, b := range builtins {
		args := []Value{
			&Array{Elems: []Value{2.0, 1.0, 3.0}},
			&Array{Elems: []Value{"b", "a"}},
			FromGo(map[string]any{"a": 1.0, "b": 2.0}),
		}
		if b.sig.Params != nil && b.sig.Params[0].Type == "object" {
			args[0], args[2] = args[2], args[0]
		}
		if len(b.sig.Params) > 1 && b.sig.Params[1].Type == "string" {
			args[1] = "a"
		}
		before := make([]string, len(args))
		for i, a := range args {
			before[i], _ = Stringify(a)
		}
		var in interp
		_, _ = b.fn(&in, args) // a type error must leave the arguments alone too
		for i, a := range args {
			if after, _ := Stringify(a); after != before[i] && b.sig.Writes != i+1 {
				t.Errorf("%s changed argument %d (%s → %s) but its signature marks argument %d", name, i+1, before[i], after, b.sig.Writes)
			}
		}
	}
}

// readOnlyTrace runs events event_received calls on one context whose host
// calls are stubs, and reports, for a module declared read-only, whether
// anything it was handed or has sent changed afterwards: each message's
// rendering after its event, and each call_module payload's after the last
// event, against the rendering it had when it arrived or left.
func readOnlyTrace(t *testing.T, src string, events int) {
	ctx := NewContext()
	ctx.SetLimits(Limits{Instructions: 20_000, Memory: 1 << 20})
	type sent struct {
		v    Value
		text string
	}
	var sends []sent
	render := func(v Value) string {
		s, err := StringifyMax(v, 1<<12)
		if err != nil {
			return "<" + err.Error() + ">"
		}
		return s
	}
	ctx.Bind("call_module", func(args []Value) (Value, error) {
		if len(args) < 2 {
			return nil, nil
		}
		kept := args[1]
		if msg, ok := kept.(*Object); ok {
			// The message is lent: keep what a local edge keeps of a
			// read-only sender's, its own top-level object sharing the rest.
			c, _, err := CopyMessage(msg, true)
			if err != nil {
				return nil, err
			}
			kept = c
		}
		sends = append(sends, sent{kept, render(kept)})
		return nil, nil
	})
	ctx.Bind("call_service", func(args []Value) (Value, error) {
		return FromGo(map[string]any{"found": true, "pose": []any{1.0, map[string]any{"x": 2.0}}}), nil
	})
	for _, name := range []string{"metric", "log", "now_ms", "frame_done", "device_name"} {
		ctx.Bind(name, func([]Value) (Value, error) { return 1.0, nil })
	}
	if err := ctx.Load(src); err != nil || !ctx.ReadOnly() || !ctx.Has("event_received") {
		return
	}
	for i := 0; i < events; i++ {
		msg := FromGo(map[string]any{"frame_ref": 7.0, "seq": float64(i), "pose": map[string]any{"kps": []any{map[string]any{"x": 1.0}, 2.0}}})
		before := render(msg)
		_, _ = ctx.Call("event_received", msg) // a failed event must not have written either
		if after := render(msg); after != before {
			t.Errorf("declared read-only, but event %d changed its message from %s to %s; source:\n%s", i, before, after, src)
		}
	}
	for _, s := range sends {
		if now := render(s.v); now != s.text {
			t.Errorf("declared read-only, but a payload it sent as %s changed to %s; source:\n%s", s.text, now, src)
		}
	}
}

// FuzzReadOnly closes the soundness loop on the read-only verdict: whenever
// a module is declared read-only, nothing it was handed, and nothing it
// handed on, changes after the fact — which is what lets a local edge share
// them.
func FuzzReadOnly(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Add("var w = [];\nfunction event_received(m) { push(w, m.pose); call_module(\"a\", {w: w[0]}); }")
	f.Add("var w = [];\nfunction event_received(m) { push(w, m.pose); call_module(\"a\", {w: w}); }")
	f.Add("function event_received(m) { var f = push; f(m.pose.kps, 1); }")
	f.Add("function event_received(m) { var o = {n: 1}; call_module(\"a\", {o: o}); o.n = 2; }")
	f.Add("var w = [];\nfunction event_received(m) { call_module(\"a\", {s: sort(w)}); push(w, m.seq); }")
	f.Add("function event_received(m) { push(m.pose.kps, 1); var push = 0; }")
	f.Add("var w = [];\nfunction event_received(m) { call_module(\"a\", {w: w = []}); push(w, m.seq); }")
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.js"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, module := range []string{src, "function event_received(message) {\n" + src + "\n}"} {
			readOnlyTrace(t, module, 2)
		}
	})
}
