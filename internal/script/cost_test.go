package script

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCostGoldenCorpus drives the testdata/cost corpus: each file's first
// line declares the PV012/PV013 codes it must (and must only) trigger,
// `// expect: PV012 PV013` or `// expect: none`.
func TestCostGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "cost", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("corpus too small: %d files", len(files))
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			first, _, _ := strings.Cut(src, "\n")
			spec, ok := strings.CutPrefix(strings.TrimSpace(first), "// expect:")
			if !ok {
				t.Fatalf("first line must be an `// expect:` header, got %q", first)
			}
			want := map[string]bool{}
			for _, code := range strings.Fields(spec) {
				if code != "none" {
					want[code] = true
				}
			}

			rep := Analyze(src, Options{})
			got := map[string]bool{}
			for _, d := range rep.Diagnostics {
				if d.Code == CodeUnboundedLoop || d.Code == CodeUnboundableCost {
					got[d.Code] = true
					if d.Severity != SeverityWarning {
						t.Errorf("%s must be a warning, got %v", d.Code, d.Severity)
					}
				}
			}
			for code := range want {
				if !got[code] {
					t.Errorf("expected %s, not reported; diagnostics: %v", code, rep.Diagnostics)
				}
			}
			for code := range got {
				if !want[code] {
					t.Errorf("unexpected %s; diagnostics: %v", code, rep.Diagnostics)
				}
			}

			// Cross-check the report's view: a corpus file expecting cost
			// diagnostics must have an unbounded event handler, a clean one
			// must be fully bounded.
			h, okH := rep.Cost.Handler("event_received")
			if !okH {
				t.Fatal("corpus file defines no event_received")
			}
			if len(want) == 0 && !h.Bounded {
				t.Errorf("handler should be bounded, reasons: %v", h.Reasons)
			}
			if len(want) > 0 && h.Bounded {
				t.Errorf("handler should be unbounded (steps=%d)", h.Steps)
			}
		})
	}
}

// costStub binds the host API so corpus sources can actually run; the
// interpreter's measured step count is then compared with the static
// bound.
func costStub(ctx *Context) {
	ctx.Bind("call_service", func(args []Value) (Value, error) {
		r := NewObject()
		r.Set("found", true)
		r.Set("confidence", 0.9)
		r.Set("pose", "squat")
		return r, nil
	})
	ctx.Bind("call_module", func(args []Value) (Value, error) { return nil, nil })
	ctx.Bind("metric", func(args []Value) (Value, error) { return nil, nil })
	ctx.Bind("log", func(args []Value) (Value, error) { return nil, nil })
	ctx.Bind("now_ms", func(args []Value) (Value, error) { return float64(12345), nil })
	ctx.Bind("frame_done", func(args []Value) (Value, error) { return nil, nil })
	ctx.Bind("device_name", func(args []Value) (Value, error) { return "phone", nil })
}

// TestCostSoundnessOnCorpus checks static >= measured for every bounded
// handler in the corpus, driving event_received with a representative
// message.
func TestCostSoundnessOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "cost", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			rep := Analyze(src, Options{})

			ctx := NewContext()
			costStub(ctx)
			if err := ctx.Load(src); err != nil {
				t.Fatalf("load: %v", err)
			}
			if h, ok := rep.Cost.Handler(LoadHandler); ok && h.Bounded {
				if got := ctx.LastInstructions(); got > h.Steps {
					t.Errorf("load: measured %d > static bound %d", got, h.Steps)
				}
			}

			h, ok := rep.Cost.Handler("event_received")
			if !ok || !h.Bounded {
				return
			}
			for seq := 0; seq < 10; seq++ {
				msg := NewObject()
				msg.Set("frame_ref", "f1")
				msg.Set("seq", float64(seq))
				msg.Set("count", float64(seq*3))
				msg.Set("skip", seq%2 == 0)
				msg.Set("heavy", seq%2 == 1)
				if _, err := ctx.Call("event_received", msg); err != nil {
					t.Fatalf("event %d: %v", seq, err)
				}
				if got := ctx.LastInstructions(); got > h.Steps {
					t.Errorf("event %d: measured %d > static bound %d", seq, got, h.Steps)
				}
			}
		})
	}
}

// measureHandlers runs src the way a module host would — load, then one
// event — in a context with the host API stubbed and runaway scripts capped,
// and returns the interpreter steps each phase executed. loaded is false
// when the load failed (event is then meaningless); a failed event still
// reports the steps it ran before aborting.
func measureHandlers(src string) (load, event int64, loaded bool) {
	ctx := NewContext()
	costStub(ctx)
	ctx.SetMaxSteps(200_000)
	ctx.SetLimits(Limits{Memory: 1 << 22})
	err := ctx.Load(src)
	load = ctx.LastInstructions()
	if err != nil || !ctx.Has("event_received") {
		return load, 0, false
	}
	msg := NewObject()
	msg.Set("frame_ref", "f1")
	msg.Set("seq", float64(1))
	_, _ = ctx.Call("event_received", msg) // a script error only shortens the run
	return load, ctx.LastInstructions(), true
}

// TestCostBoundCoversMeasured holds scripts whose handler was once Bounded
// below what the interpreter then measured. Each must now be either
// unbounded or bounded at or above the measured count.
func TestCostBoundCoversMeasured(t *testing.T) {
	cases := []struct{ name, src string }{
		// A local function value named like a builtin was priced as the
		// builtin: one iteration of range(1) instead of the local's twenty
		// (25 static vs 370 measured).
		{"local function value shadows builtin", `function event_received(message) {
  var acc = 0;
  var range = function(n) { return [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20]; };
  for (var x of range(1)) { acc = acc + x; acc = acc + x; acc = acc + x; }
}`},
		// A counted loop over a module global the callee rewinds was bounded
		// at three iterations (77 static vs 1196 measured).
		{"callee writes the induction variable", `var i = 0;
var n = 0;
function reset() { if (n < 50) { i = 0; } n = n + 1; }
function event_received(message) {
  for (i = 0; i < 3; i++) { reset(); }
}`},
		// The same name at module level: the global replaces the builtin for
		// every function that calls it by name.
		{"module value shadows builtin", `var range = null;
function init() { range = function(n) { return [1, 2, 3, 4, 5, 6, 7, 8]; }; }
function event_received(message) {
  if (range == null) { init(); }
  var acc = 0;
  for (var x of range(1)) { acc = acc + x; acc = acc + x; }
}`},
		// No declaration at all: a plain assignment overwrites the builtin
		// (found by FuzzCost's soundness property).
		{"assignment overwrites builtin", `function event_received(message) {
  range = function(n) { return [1, 2, 3, 4, 5, 6, 7, 8]; };
  var acc = 0;
  for (var x of range(1)) { acc = acc + x; acc = acc + x; }
}`},
		// A brace-less arm's `var i` lands in the loop's own scope and so
		// rewinds the induction variable each pass; the redeclaration must
		// stay seen after the walk moves on to the else arm's `var j`.
		{"redeclaration followed by another declaration", `function event_received(message) {
  for (var i = 0; i < 3; i++) if (1) var i = 0; else var j = 1;
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, ok := AnalyzeCost(tc.src).Handler("event_received")
			if !ok {
				t.Fatal("no event_received handler")
			}
			_, measured, loaded := measureHandlers(tc.src)
			if !loaded {
				t.Fatal("script does not load")
			}
			if h.Bounded && h.Steps < measured {
				t.Errorf("static bound %d < measured %d", h.Steps, measured)
			}
			t.Logf("bounded=%v static=%d measured=%d reasons=%v", h.Bounded, h.Steps, measured, h.Reasons)
		})
	}
}

// TestCostInductionVariable pins which induction variables a counted loop
// may trust: only one nothing outside the loop's own text can write.
func TestCostInductionVariable(t *testing.T) {
	cases := []struct {
		name, src string
		bounded   bool
	}{
		{"declared by the loop", `function event_received(m) { for (var i = 0; i < 3; i++) { log(i); } }`, true},
		{"local of a closure-free function", `function event_received(m) { var i; for (i = 0; i < 3; i++) { log(i); } }`, true},
		{"parameter", `function event_received(m) { for (m = 0; m < 3; m++) { log(m); } }`, true},
		{"module global", `var i = 0; function event_received(m) { for (i = 0; i < 3; i++) { log(i); } }`, false},
		{"local a closure can reach", `function event_received(m) { var i; var f = function() { i = 0; }; for (i = 0; i < 3; i++) { log(i); } }`, false},
		{"local declared after the loop, global of the same name", `var i = 0; function event_received(m) { for (i = 0; i < 3; i++) { log(i); } var i = 1; }`, false},
	}
	for _, tc := range cases {
		h, ok := AnalyzeCost(tc.src).Handler("event_received")
		if !ok || h.Bounded != tc.bounded {
			t.Errorf("%s: bounded = %v, want %v (reasons %v)", tc.name, h.Bounded, tc.bounded, h.Reasons)
		}
	}
}

// TestCostExactness pins the static bound to the measured count on
// branch-free code — the bound should be tight there, catching model
// drift in either direction.
func TestCostExactness(t *testing.T) {
	src := `var count = 0;
function event_received(message) {
  count = count + 1;
  var x = count * 2 + message.seq;
  metric("x", x);
  frame_done();
}`
	rep := Analyze(src, Options{})
	h, ok := rep.Cost.Handler("event_received")
	if !ok || !h.Bounded {
		t.Fatalf("handler not bounded: %+v", h)
	}

	ctx := NewContext()
	costStub(ctx)
	if err := ctx.Load(src); err != nil {
		t.Fatal(err)
	}
	msg := NewObject()
	msg.Set("seq", float64(7))
	if _, err := ctx.Call("event_received", msg); err != nil {
		t.Fatal(err)
	}
	if got := ctx.LastInstructions(); got != h.Steps {
		t.Errorf("straight-line bound not tight: static %d, measured %d", h.Steps, got)
	}
}

// TestCostCountedLoopTight pins the bound on a constant counted loop.
func TestCostCountedLoopTight(t *testing.T) {
	src := `function event_received(message) {
  var sum = 0;
  for (var i = 0; i < 16; i++) {
    sum += i;
  }
  metric("sum", sum);
  frame_done();
}`
	rep := Analyze(src, Options{})
	h, ok := rep.Cost.Handler("event_received")
	if !ok || !h.Bounded {
		t.Fatalf("handler not bounded: %+v", h)
	}
	ctx := NewContext()
	costStub(ctx)
	if err := ctx.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Call("event_received", NewObject()); err != nil {
		t.Fatal(err)
	}
	if got := ctx.LastInstructions(); got != h.Steps {
		t.Errorf("counted-loop bound not tight: static %d, measured %d", h.Steps, got)
	}
}

// TestCostWeight checks the planner-facing scalar: host calls priced from
// the signature table, symbolic detection, unbounded domination.
func TestCostWeight(t *testing.T) {
	light := AnalyzeCost(`function event_received(message) { log(message.seq); frame_done(); }`)
	heavy := AnalyzeCost(`function event_received(message) {
  var r = call_service("pose_detector", {frame_ref: message.frame_ref});
  call_module("next", {pose: r.pose});
}`)
	if light.EventSymbolic() {
		t.Error("light handler should not be symbolic")
	}
	if !heavy.EventSymbolic() {
		t.Error("call_service handler should be symbolic")
	}
	lw, hw := light.EventWeight(), heavy.EventWeight()
	if lw <= 0 || hw <= 0 {
		t.Fatalf("weights must be positive: light %d, heavy %d", lw, hw)
	}
	if hw <= lw {
		t.Errorf("call_service must dominate: light %d, heavy %d", lw, hw)
	}
	if sig := callSignatures["call_service"]; hw < sig.Cost {
		t.Errorf("heavy weight %d below call_service cost %d", hw, sig.Cost)
	}

	unbounded := AnalyzeCost(`function event_received(message) { while (message.go) { log(1); } }`)
	if w := unbounded.EventWeight(); w != UnboundedWeight {
		t.Errorf("unbounded weight = %d, want UnboundedWeight", w)
	}

	// Loop scaling: 100 iterations of a metric call must weigh roughly
	// 100x the single call.
	looped := AnalyzeCost(`function event_received(message) {
  for (var i = 0; i < 100; i++) { metric("i", i); }
  frame_done();
}`)
	h, _ := looped.Handler("event_received")
	if n := h.HostCalls["metric"]; n != 100 {
		t.Errorf("metric call bound = %d, want 100", n)
	}
}

// TestCostAllocs sanity-checks the advisory allocation bound.
func TestCostAllocs(t *testing.T) {
	rep := AnalyzeCost(`function event_received(message) {
  var box = {x: 1, y: 2};
  var pts = [box, box];
  var label = "p" + message.seq;
  log(label, pts);
  frame_done();
}`)
	h, ok := rep.Handler("event_received")
	if !ok || !h.Bounded {
		t.Fatalf("handler not bounded: %+v", h)
	}
	// At least: arguments array, object literal, array literal, concat.
	if h.Allocs < 4 {
		t.Errorf("allocation bound %d too small", h.Allocs)
	}
}

// TestCostShadowedBuiltin: a module function shadowing a builtin must not
// be priced as the builtin (that would be unsound if it recursed).
func TestCostShadowedBuiltin(t *testing.T) {
	rep := AnalyzeCost(`function range(n) { return range(n); }
function event_received(message) {
  for (x of range(3)) { log(x); }
  frame_done();
}`)
	h, ok := rep.Handler("event_received")
	if !ok {
		t.Fatal("no handler")
	}
	if h.Bounded {
		t.Error("for-of over shadowed recursive range() must be unbounded")
	}
}

// TestAnalyzeCostUnparseable: bad sources yield an empty report, not a
// panic.
func TestAnalyzeCostUnparseable(t *testing.T) {
	rep := AnalyzeCost("function ( {")
	if len(rep.Handlers) != 0 {
		t.Errorf("want empty report, got %+v", rep.Handlers)
	}
}
