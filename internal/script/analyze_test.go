package script

import (
	"fmt"
	"strings"
	"testing"
)

// TestAnalyzeNegativeCorpus locks in the diagnostic contract: one minimal
// snippet per code, asserting the exact code, severity and line:col.
func TestAnalyzeNegativeCorpus(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
		code string
		sev  Severity
		pos  string // "line:col"
	}{
		{
			name: "PV000 syntax error",
			src:  "function (", code: CodeSyntax, sev: SeverityError, pos: "1:10",
		},
		{
			name: "PV001 undefined identifier",
			src:  "var x = missing;\nlog(x);",
			code: CodeUndefined, sev: SeverityError, pos: "1:9",
		},
		{
			name: "PV001 assignment to undeclared name",
			src:  "total = 1;",
			code: CodeUndefined, sev: SeverityError, pos: "1:1",
		},
		{
			name: "PV002 use before declaration",
			src:  "log(a);\nvar a = 1;\nlog(a);",
			code: CodeUseBeforeDecl, sev: SeverityError, pos: "1:5",
		},
		{
			name: "PV003 unused variable",
			src:  "var unused = 1;",
			code: CodeUnused, sev: SeverityWarning, pos: "1:1",
		},
		{
			name: "PV003 unused parameter",
			src:  "function f(x) { return 1; }\nlog(f(2));",
			code: CodeUnused, sev: SeverityWarning, pos: "1:1",
		},
		{
			name: "PV004 unreachable after return",
			src:  "function f() { return 1; log(2); }\nlog(f());",
			code: CodeUnreachable, sev: SeverityWarning, pos: "1:26",
		},
		{
			name: "PV005 assignment in condition",
			src:  "var x = 0;\nif (x = 1) { log(x); }",
			code: CodeCondAssign, sev: SeverityWarning, pos: "2:7",
		},
		{
			name: "PV006 duplicate declaration",
			src:  "var x = 1;\nvar x = 2;\nlog(x);",
			code: CodeDuplicate, sev: SeverityError, pos: "2:1",
		},
		{
			name: "PV007 wrong arity",
			src:  "now_ms(1);",
			code: CodeBadCall, sev: SeverityError, pos: "1:7",
		},
		{
			name: "PV007 wrong literal argument type",
			src:  `metric("stage", "fast");`,
			code: CodeBadCall, sev: SeverityError, pos: "1:17",
		},
		{
			name: "PV008 missing event_received",
			src:  "var x = 1;\nlog(x);",
			opts: Options{RequireEventReceived: true},
			code: CodeNoHandler, sev: SeverityError, pos: "1:1",
		},
		{
			name: "PV009 callback arity",
			src:  "function event_received(a, b) { log(a, b); }",
			code: CodeBadCallback, sev: SeverityWarning, pos: "1:1",
		},
		{
			// Case bodies share one scope at run time; pipevet reads each
			// as its own, so a sibling case's declaration is not in scope.
			name: "PV001 read of a sibling case's declaration",
			src:  "var x = 1; switch (x) { case 1: var y = 1; break; case 2: log(y); }",
			code: CodeUndefined, sev: SeverityError, pos: "1:63",
		},
		{
			name: "PV006 parameter redeclared",
			src:  "function f(x) { var x = 1; return x; } log(f(1));",
			code: CodeDuplicate, sev: SeverityError, pos: "1:17",
		},
		{
			name: "PV006 catch variable redeclared",
			src:  "try { log(1); } catch (e) { var e = 2; log(e); }",
			code: CodeDuplicate, sev: SeverityError, pos: "1:29",
		},
		{
			name: "PV010 assignment to const",
			src:  "const c = 1;\nc = 2;\nlog(c);",
			code: CodeConstAssign, sev: SeverityError, pos: "2:1",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := Analyze(tc.src, tc.opts)
			var hit *Diagnostic
			for i := range rep.Diagnostics {
				if rep.Diagnostics[i].Code == tc.code {
					hit = &rep.Diagnostics[i]
					break
				}
			}
			if hit == nil {
				t.Fatalf("no %s diagnostic; got %v", tc.code, rep.Diagnostics)
			}
			if hit.Severity != tc.sev {
				t.Errorf("severity = %v, want %v", hit.Severity, tc.sev)
			}
			if got := hit.Pos.String(); got != tc.pos {
				t.Errorf("position = %s, want %s (%s)", got, tc.pos, hit.Message)
			}
		})
	}
}

// TestAnalyzeCleanPrograms guards against false positives on idiomatic
// module code: nested functions referencing later top-level declarations,
// compound-assignment reads, catch variables, loops, switches.
func TestAnalyzeCleanPrograms(t *testing.T) {
	srcs := []string{
		// Mutual recursion and later declarations from nested bodies.
		`function even(n) { if (n == 0) { return true; } return odd(n - 1); }
		 function odd(n) { if (n == 0) { return false; } return even(n - 1); }
		 log(even(4));`,
		// State mutated by ++ only still counts as used.
		`var frames = 0;
		 function event_received(message) { frames++; metric("n", frames + message.seq); frame_done(); }`,
		// Catch variables may go unused; loops, switch, for-of.
		`function event_received(message) {
			var total = 0;
			for (var i = 0; i < 3; i++) { total += i; }
			for (k of keys({a: 1})) { log(k); }
			switch (total) {
			case 3: log("three"); break;
			default: log(total);
			}
			try { call_service("svc", {frame_ref: message.frame_ref}); } catch (e) { frame_done(); return; }
			frame_done();
		 }`,
		// A declaration that is an unbraced if or while arm declares in the
		// enclosing scope, as it does at run time.
		`var c = 1; if (c) var y = 1; log(y);`,
		`var c = 1; while (c) var y = c--; log(y);`,
		// Ternaries, logical operators, member/index writes.
		`var state = {count: 0};
		 function event_received(message) {
			state.count = state.count + 1;
			var label = message.found ? "hit" : "miss";
			log(label, state["count"]);
			frame_done();
		 }`,
	}
	for i, src := range srcs {
		rep := Analyze(src, Options{})
		for _, d := range rep.Diagnostics {
			// The pipecost codes are exercised by their own corpus
			// (cost_test.go); the mutual-recursion sample above is a true
			// PV013 positive, not a scoping false positive.
			if d.Code == CodeUnboundedLoop || d.Code == CodeUnboundableCost {
				continue
			}
			t.Errorf("program %d: unexpected diagnostic %s", i, d)
		}
	}
}

// TestAnalyzeFacts checks the cross-check inputs: literal targets with
// positions, dynamic-target counting, callback detection.
func TestAnalyzeFacts(t *testing.T) {
	src := `var targets = ["a", "b"];
function init() { log("up"); }
function event_received(message) {
	call_service("pose_detector", {frame_ref: message.frame_ref});
	call_module(targets[0], {});
	call_module("display", {});
	frame_done();
}`
	rep := Analyze(src, Options{})
	for _, d := range rep.Diagnostics {
		if d.Severity == SeverityError {
			t.Fatalf("unexpected error: %v", d)
		}
	}
	f := rep.Facts
	if !f.HasEventReceived || !f.HasInit {
		t.Errorf("callbacks not detected: %+v", f)
	}
	if len(f.ServiceTargets) != 1 || f.ServiceTargets[0].Name != "pose_detector" {
		t.Errorf("service targets = %+v", f.ServiceTargets)
	}
	if f.ServiceTargets[0].Pos.Line != 4 {
		t.Errorf("service target line = %d, want 4", f.ServiceTargets[0].Pos.Line)
	}
	if len(f.ModuleTargets) != 1 || f.ModuleTargets[0].Name != "display" {
		t.Errorf("module targets = %+v", f.ModuleTargets)
	}
	if f.DynamicModuleTargets != 1 || f.DynamicServiceTargets != 0 {
		t.Errorf("dynamic counts = %d/%d", f.DynamicServiceTargets, f.DynamicModuleTargets)
	}
}

// CallsServices is the load-time side of the service call sites: set when
// any identifier can resolve to the global call_service, a call through an
// alias included, and not by a local that only shares the name.
func TestCallsServices(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{`function event_received(m) { call_service("pose_detector", {frame_ref: m.frame_ref}); }`, true},
		{`function event_received(m) { var s = m.svc; call_service(s, {}); }`, true},
		{`function event_received(m) { var f = call_service; f("x", {}); }`, true},
		{`function helper(m) { return call_service("x", m); }
function event_received(m) { call_module("next", m); }`, true},
		{`function event_received(m) { call_module("next", {frame_ref: m.frame_ref}); }`, false},
		{`function event_received(m) { var call_service = 1; frame_done(); }`, false},
		{`function event_received(call_service) { frame_done(); }`, false},
	} {
		c := NewContext()
		if err := c.Load(tc.src); err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := c.CallsServices(); got != tc.want {
			t.Errorf("CallsServices = %v, want %v for\n%s", got, tc.want, tc.src)
		}
	}
}

// TestCheckHostArgs exercises the runtime side of the shared signature
// table, which the device host API delegates to.
func TestCheckHostArgs(t *testing.T) {
	cases := []struct {
		name    string
		args    []Value
		wantErr string
	}{
		{"call_service", nil, "call_service: missing service name"},
		{"call_service", []Value{42.0}, "call_service: service name must be a string, got number"},
		{"call_service", []Value{"pose"}, ""},
		{"call_service", []Value{"pose", nil}, ""},
		{"call_module", []Value{"next", "payload"}, "call_module: message must be an object, got string"},
		{"metric", []Value{"stage"}, "metric: missing value"},
		{"metric", []Value{"stage", "fast"}, "metric: value must be a number, got string"},
		{"metric", []Value{"stage", 1.5}, ""},
		{"unknown_binding", []Value{1.0, 2.0}, ""}, // not in the table: permitted
	}
	for _, tc := range cases {
		err := CheckHostArgs(tc.name, tc.args)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s(%v): unexpected error %v", tc.name, tc.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s(%v): error = %v, want %q", tc.name, tc.args, err, tc.wantErr)
		}
	}
}

// TestDiagnosticString pins the file:line:col code message layout consumers
// (the -lint CLI, AnalysisError) build on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Pos: Position{Line: 3, Col: 9}, Code: CodeUndefined,
		Severity: SeverityError, Message: `"ghost" is not defined`}
	want := fmt.Sprintf("3:9: error %s: %q is not defined", CodeUndefined, "ghost")
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}
