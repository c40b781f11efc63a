package script

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds are hand-picked inputs exercising every syntactic corner the
// grammar has tripped on: empty programs, nesting, operator precedence,
// unterminated constructs and stray bytes.
var fuzzSeeds = []string{
	"",
	";",
	"var x = 1;",
	"function event_received(message) { frame_done(); }",
	"function f(a, b) { return a + b * -c; }",
	"if (x) { y(); } else if (z) { w(); }",
	"while (i < 10) { i = i + 1; }",
	"for (var i = 0; i < n; i = i + 1) { emit(i); }",
	"var o = { a: 1, b: [1, 2, 3], c: { d: \"s\" } };",
	"var s = \"escaped \\\" quote and \\n newline\";",
	"x = a && b || !c == d != e <= f >= g;",
	"call_service(\"pose_detector\", {frame_ref: m.frame_ref});",
	"// comment only\n",
	"/* block\ncomment */ var x = 0;",
	"function broken( {",
	"var x = ;",
	"\"unterminated",
	"}{",
	"var \x00 = 1;",
	"function event_received(m) { return { nested: [{}, [[]]] }; }",
}

// FuzzParse feeds arbitrary source through the full front end — lexer,
// parser and static analyzer — asserting none of it panics. Parse errors
// are expected and fine; crashing on malformed input is not.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	// The example PipeScript modules are the richest well-formed seeds.
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.js"))
	if err != nil {
		f.Fatalf("glob examples: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read %s: %v", p, err)
		}
		f.Add(string(src))
	}

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parse(src)
		if err != nil && prog != nil {
			t.Errorf("parse returned both a program and error %v", err)
		}
		// The analyzer must also hold on anything the parser accepts
		// (and on anything it rejects — Analyze reports, never panics).
		_ = Analyze(src, Options{RequireEventReceived: true})
	})
}

// FuzzCost drives the pipecost pass with arbitrary handler bodies,
// asserting three properties: the pass never panics; the bound is sound —
// a handler reported Bounded never executes more interpreter steps than its
// bound when the body actually runs; and the bound is monotone — appending
// a statement to the body never lowers the computed instruction or
// allocation bound.
func FuzzCost(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	// Bodies that were once bounded below their measured count: a local
	// function value taking a builtin's name, and (closing the wrapper to
	// reach module level) a counted loop whose callee rewinds the variable.
	f.Add(`var acc = 0; var range = function(n) { return [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]; };
for (var x of range(1)) { acc = acc + x; acc = acc + x; acc = acc + x; }`)
	f.Add(`for (i = 0; i < 3; i++) { reset(); } }
var i = 0; var n = 0;
function reset() { if (n < 50) { i = 0; } n = n + 1;`)
	// A redeclared induction variable with a later, unrelated declaration.
	f.Add(`for (var i = 0; i < 3; i++) if (1) var i = 0; else var j = 1;`)
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.js"))
	if err != nil {
		f.Fatalf("glob examples: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read %s: %v", p, err)
		}
		f.Add(string(src))
	}

	f.Fuzz(func(t *testing.T, body string) {
		// No panics on raw input, parseable or not.
		_ = AnalyzeCost(body)

		// Monotonicity: the same body with one more statement appended must
		// not get a smaller bound. Skip bodies the wrapper cannot absorb
		// (e.g. an unbalanced brace swallowing the closer).
		base := "function event_received(message) {\n" + body + "\n}"
		grown := "function event_received(message) {\n" + body + "\nvar __fz_pad = 0;\n}"
		repBase := AnalyzeCost(base)
		repGrown := AnalyzeCost(grown)
		hb, okb := repBase.Handler("event_received")
		hg, okg := repGrown.Handler("event_received")
		if !okb || !okg {
			return
		}

		// Soundness: static bound >= measured steps, for the load and for
		// one event, whenever the analysis claims a bound.
		load, event, loaded := measureHandlers(base)
		if hl, ok := repBase.Handler(LoadHandler); ok && hl.Bounded && load > hl.Steps {
			t.Errorf("load: measured %d > static bound %d:\n%s", load, hl.Steps, base)
		}
		if loaded && hb.Bounded && event > hb.Steps {
			t.Errorf("event_received: measured %d > static bound %d:\n%s", event, hb.Steps, base)
		}

		if !hb.Bounded {
			// Unbounded stays unbounded when statements are added.
			if hg.Bounded {
				t.Errorf("bound appeared when growing the body:\n%s", body)
			}
			return
		}
		if !hg.Bounded {
			// Growing can only make things unbounded via the pad statement's
			// interaction with the tail (e.g. body ends mid-statement); that
			// changes the parse, not the model — ignore.
			return
		}
		if hg.Steps < hb.Steps {
			t.Errorf("instruction bound shrank %d -> %d when growing the body:\n%s", hb.Steps, hg.Steps, body)
		}
		if hg.Allocs < hb.Allocs {
			t.Errorf("allocation bound shrank %d -> %d when growing the body:\n%s", hb.Allocs, hg.Allocs, body)
		}
	})
}

// FuzzShapes drives the pipetype shape pass with arbitrary handler bodies,
// asserting two properties: the pass never panics (parseable input or
// not), and emission collection is monotone — appending one more
// call_module site never loses an already-inferred target, and the join of
// two shapes contains both operands.
func FuzzShapes(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "configs", "*.js"))
	if err != nil {
		f.Fatalf("glob examples: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read %s: %v", p, err)
		}
		f.Add(string(src))
	}

	f.Fuzz(func(t *testing.T, body string) {
		// No panics on raw input.
		_ = AnalyzeShapes(body)

		// The probe emission is prepended, not appended: bodies can
		// truncate everything after themselves (a NUL byte reads as EOF),
		// but a leading statement always survives if the program parses.
		base := "function event_received(message) {\n" + body + "\n}"
		grown := "call_module(\"__fz_t\", {__fz_f: 1});\n" + base
		repBase := AnalyzeShapes(base)
		if !repBase.Consumed.HasHandler {
			// The wrapper did not survive the body (unbalanced braces and
			// the like): the grown variant parses differently, skip.
			return
		}
		repGrown := AnalyzeShapes(grown)
		if !repGrown.Consumed.HasHandler {
			return
		}
		for target, shape := range repBase.Emits {
			grownShape, ok := repGrown.Emits[target]
			if !ok {
				t.Errorf("target %q lost when growing the body:\n%s", target, body)
				continue
			}
			// Join-monotonicity: the lattice join of the two inferences
			// contains each operand.
			joined := shape.Join(grownShape)
			if !joined.Contains(shape) || !joined.Contains(grownShape) {
				t.Errorf("join %s does not contain operands %s / %s:\n%s",
					joined, shape, grownShape, body)
			}
		}
		if _, ok := repGrown.Emits["__fz_t"]; !ok {
			t.Errorf("prepended emission not inferred:\n%s", body)
		}
	})
}
