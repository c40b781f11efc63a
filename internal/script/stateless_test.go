package script

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// verdictOf is src's stateless verdict as `videopipe -lint` words it.
func verdictOf(src string) string { return Analyze(src, Options{}).Facts.Replication() }

// The verdict on every module source shipped under examples/configs. (The
// built-in applications' table is in internal/apps, which this package
// cannot import.)
func TestStatelessVerdictOnExampleConfigs(t *testing.T) {
	want := map[string]string{
		"Alert.js":       `single-context: writes global "alerts" at 3:1`,
		"FallMonitor.js": `single-context: writes global "state" at 3:1`,
		"PoseDetect.js":  "replicable",
		"PoseWatch.js":   `single-context: writes global "seen" at 3:1`,
		"Streamer.js":    "replicable",
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Errorf("%d example modules, table has %d", len(paths), len(want))
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := verdictOf(string(src)); got != want[filepath.Base(p)] {
			t.Errorf("%s: %s, want %s", filepath.Base(p), got, want[filepath.Base(p)])
		}
	}
}

// Each row is one way a module could carry something from one event to the
// next, or look as if it did: the verdict must be stateful for every real
// one and must not be scared off by the look-alikes.
func TestStatelessVerdict(t *testing.T) {
	handler := "function event_received(m) { frame_done(); }\n"
	cases := []struct{ name, src, want string }{
		{"functions and scalar consts", `const LIMIT = 10; const NAME = "x"; const OFF = -1; const ON = true; const NONE = null;
function helper(n) { return n + LIMIT; }
function event_received(m) { call_module("next", {v: helper(m.v)}); }`, "replicable"},
		{"locals, counted loop, compound assignment", `function event_received(m) {
	var acc = 0;
	for (var i = 0; i < 10; i++) { acc += i; }
	var o = {n: 0}; o.n = acc; o["k"] = 1;
	m.seen = true;
	call_module("next", o);
}`, "replicable"},
		{"parameter named like a global", `function helper(event_received) { event_received = 1; return event_received; }
` + handler, "replicable"},
		{"closure over a local", `function event_received(m) {
	var n = 0;
	var bump = function() { n++; return n; };
	bump(); call_module("next", {n: bump()});
}`, "replicable"},
		{"catch and for-of variables", `function event_received(m) {
	try { throw 1; } catch (e) { e = 2; }
	for (var k of keys(m)) { k = k + "!"; }
}`, "replicable"},

		{"top-level var", "var window = [];\n" + handler, `single-context: writes global "window" at 1:1`},
		{"top-level let without initialiser", "let last;\n" + handler, `single-context: writes global "last" at 1:1`},
		{"global written from a function", handler + "function bump() {\n  count = count + 1;\n}\nvar count = 0;", `single-context: writes global "count" at 3:3`},
		{"global incremented", handler + "function bump() { hits++; }", `single-context: writes global "hits" at 2:19`},
		{"reassigning a function global", handler + "function swap() { event_received = function(m) {}; }", `single-context: writes global "event_received" at 2:19`},
		{"reassigning a builtin", handler + "function hijack() { len = function(x) { return 0; }; }", `single-context: writes global "len" at 2:21`},
		{"reassigning a host binding", handler + "function hijack() { frame_done = null; }", `single-context: writes global "frame_done" at 2:21`},
		{"const object mutated through a member", "const o = {n: 0};\nfunction event_received(m) { o.n = o.n + 1; }", `single-context: writes global "o" at 1:1`},
		{"const array", "const seen = [];\n" + handler, `single-context: writes global "seen" at 1:1`},
		{"const from a call", "const started = now_ms();\n" + handler, `single-context: writes global "started" at 1:1`},
		{"const function value", "const f = function() {};\n" + handler, `single-context: writes global "f" at 1:1`},
		{"var holding a closure", "var f = make_counter();\nfunction make_counter() { var n = 0; return function() { n++; return n; }; }\n" + handler, `single-context: writes global "f" at 1:1`},
		{"top-level expression statement", handler + "log(\"loaded\");", "single-context: top-level statement at 2:1"},
		{"top-level block", handler + "{ const hidden = 1; }", "single-context: top-level statement at 2:1"},
		{"top-level if declaring a global", handler + "if (true) var late = 1;", "single-context: top-level statement at 2:1"},
		// The local `var helper` has not executed when the assignment runs, so
		// the write lands on the function global of the same name.
		{"shadowing falls through before the local var executes", "function helper() { return 1; }\nfunction event_received(m) {\n  helper = null;\n  var helper = 2;\n}", `single-context: writes global "helper" at 3:3`},
		{"shadowing falls through in a skipped switch case", "function helper() {}\nfunction event_received(m) {\n  switch (m.k) { case 1: var helper = 1; case 2: helper = 2; }\n}", `single-context: writes global "helper" at 3:50`},
		{"the earliest finding is the one reported", "function a() { x = 1; }\nvar x = 0;\n" + handler, `single-context: writes global "x" at 1:16`},
	}
	for _, tc := range cases {
		if got := verdictOf(tc.src); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
		// The context reaches the same verdict from the same pass.
		ctx := NewContext()
		costStub(ctx)
		if err := ctx.Load(tc.src); err == nil && ctx.Stateless() != (tc.want == "replicable") {
			t.Errorf("%s: Context.Stateless() = %v after Load", tc.name, ctx.Stateless())
		}
	}
}

// Every global a module can find in a context before its own code runs is
// a name the verdict treats as one (isAmbientGlobal): a binding missing from
// the signature table could be overwritten through a shadowed name unseen.
func TestStatelessKnowsEveryBuiltin(t *testing.T) {
	ctx := NewContext()
	costStub(ctx)
	for name := range ctx.globals {
		if !isAmbientGlobal(name) {
			t.Errorf("global %q is not in the signature table", name)
		}
	}
}

// hostTrace runs events event_received calls — all on one context, or each
// on a fresh one — with every host call stubbed to a recorder, and returns
// what the outside world saw: each call with its arguments, then how the
// event ended. ok is false unless src loads, is declared stateless and has a
// handler.
func hostTrace(src string, events int, reuse bool) (trace []string, ok bool) {
	var ctx *Context
	for i := 0; i < events; i++ {
		if ctx == nil || !reuse {
			ctx = NewContext()
			ctx.SetLimits(Limits{Instructions: 20_000, Memory: 1 << 20})
			for _, name := range []string{"call_service", "call_module", "metric", "log", "now_ms", "frame_done", "device_name"} {
				name := name
				ctx.Bind(name, func(args []Value) (Value, error) {
					line := name
					for _, a := range args {
						s, err := StringifyMax(a, 1<<10)
						if err != nil {
							s = "<" + err.Error() + ">"
						}
						line += " " + s
					}
					trace = append(trace, line)
					switch name {
					case "call_service":
						r := NewObject()
						r.Set("found", true)
						r.Set("pose", &Array{Elems: []Value{1.0, 2.0}})
						return r, nil
					case "now_ms":
						return 12345.0, nil
					case "device_name":
						return "phone", nil
					}
					return nil, nil
				})
			}
			if err := ctx.Load(src); err != nil || !ctx.Stateless() || !ctx.Has("event_received") {
				return nil, false
			}
		}
		msg := FromGo(map[string]any{"frame_ref": 7.0, "seq": float64(i), "pose": []any{1.0, 2.0}})
		v, err := ctx.Call("event_received", msg)
		trace = append(trace, fmt.Sprintf("-> %v / %v", cellOf(v).display(), err))
	}
	return trace, true
}

// FuzzStateless closes the soundness loop on the stateless verdict: whenever
// a module is declared stateless, running two events on one context must
// look from outside exactly like running one on each of two fresh contexts —
// which is what the device runtime does with it.
func FuzzStateless(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	// The other fuzzers' hand-written seeds (FuzzBudget's, FuzzCost's).
	f.Add(`function event_received(m) { while (true) {} }`)
	f.Add(`var s = "x"; function event_received(m) { while (true) { s = s + s; } }`)
	f.Add(`var a = []; push(a, a); function event_received(m) { try { str(a); } catch (e) {} return "" + a; }`)
	f.Add(`function event_received(m) { var a = [0]; for (var i = 0; i < 22; i++) { a = [a, a]; } try { str(a); } catch (e) {} return "" + a; }`)
	f.Add(`var acc = 0; var range = function(n) { return [1, 2, 3]; }; for (var x of range(1)) { acc = acc + x; }`)
	f.Add("for (i = 0; i < 3; i++) { reset(); } }\nvar i = 0; var n = 0;\nfunction reset() { if (n < 50) { i = 0; } n = n + 1;")
	f.Add(`for (var i = 0; i < 3; i++) if (1) var i = 0; else var j = 1;`)
	// Near misses of the rule itself.
	f.Add("log(typeof helper); helper = null; var helper = 2; }\nfunction helper() { return 1;")
	f.Add(`log(typeof frame_done); frame_done = 1; var frame_done = 2;`)
	f.Add("n++; call_module(\"n\", {n: n}); }\nconst n = 0; function bump() { n = n + 1;")
	for _, dir := range []string{filepath.Join("..", "..", "examples", "configs", "*.js"), filepath.Join("testdata", "cost", "*.js")} {
		paths, err := filepath.Glob(dir)
		if err != nil {
			f.Fatalf("glob %s: %v", dir, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatalf("read %s: %v", p, err)
			}
			f.Add(string(src))
		}
	}

	f.Fuzz(func(t *testing.T, src string) {
		// As a whole module, and as a handler body (closing the wrapper
		// early reaches module level, as in FuzzCost).
		for _, module := range []string{src, "function event_received(message) {\n" + src + "\n}"} {
			reused, ok := hostTrace(module, 2, true)
			if !ok {
				continue
			}
			fresh, _ := hostTrace(module, 2, false)
			if strings.Join(reused, "\n") != strings.Join(fresh, "\n") {
				t.Errorf("declared stateless, but two events on one context:\n  %s\nand one on each of two:\n  %s\nsource:\n%s",
					strings.Join(reused, "\n  "), strings.Join(fresh, "\n  "), module)
			}
		}
	})
}
