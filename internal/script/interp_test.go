package script

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// evalNum is a test helper: evaluate src and require a numeric result.
func evalNum(t *testing.T, src string) float64 {
	t.Helper()
	v, err := NewContext().Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	n, ok := v.(float64)
	if !ok {
		t.Fatalf("Eval(%q) = %v (%s), want number", src, v, TypeName(v))
	}
	return n
}

func evalVal(t *testing.T, src string) Value {
	t.Helper()
	v, err := NewContext().Eval(src)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2", 3},
		{"2 * 3 + 4", 10},
		{"2 + 3 * 4", 14},
		{"(2 + 3) * 4", 20},
		{"10 / 4", 2.5},
		{"10 % 3", 1},
		{"-5 + 2", -3},
		{"2 * -3", -6},
		{"0x10 + 1", 17},
		{"1.5e2", 150},
		{"7 % 2.5", 2},
	}
	for _, c := range cases {
		if got := evalNum(t, c.src); got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestComparisonAndLogic(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 <= 2", true},
		{"3 > 4", false},
		{"3 >= 3", true},
		{"1 == 1", true},
		{"1 != 2", true},
		{"1 === 1", true},
		{"1 !== 1", false},
		{"'a' < 'b'", true},
		{"'abc' == 'abc'", true},
		{"1 == '1'", false}, // no coercion
		{"true && false", false},
		{"true || false", true},
		{"!false", true},
		{"null == null", true},
		{"null == 0", false},
		{"1 < 2 && 2 < 3", true},
	}
	for _, c := range cases {
		v := evalVal(t, c.src)
		if got, ok := v.(bool); !ok || got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.src, v, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// RHS must not evaluate when the LHS decides.
	src := `
		var called = false;
		function boom() { called = true; return true; }
		false && boom();
		true || boom();
		called
	`
	if v := evalVal(t, src); v != false {
		t.Errorf("short circuit evaluated RHS: called = %v", v)
	}
}

func TestStringOps(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`"a" + "b"`, "ab"},
		{`"n=" + 42`, "n=42"},
		{`1 + "x"`, "1x"},
		{`"pi=" + 3.5`, "pi=3.5"},
		{`'single' + "double"`, "singledouble"},
		{`"esc\n\t\"'"`, "esc\n\t\"'"},
		{`"A"`, "A"},
	}
	for _, c := range cases {
		v := evalVal(t, c.src)
		if got, ok := v.(string); !ok || got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, v, c.want)
		}
	}
}

func TestTernary(t *testing.T) {
	if got := evalNum(t, "1 < 2 ? 10 : 20"); got != 10 {
		t.Errorf("ternary = %v, want 10", got)
	}
	if got := evalNum(t, "false ? 1 : true ? 2 : 3"); got != 2 {
		t.Errorf("nested ternary = %v, want 2", got)
	}
}

func TestVariablesAndScope(t *testing.T) {
	src := `
		var x = 1;
		let y = 2;
		{
			let y = 20;
			x = x + y;
		}
		x + y
	`
	if got := evalNum(t, src); got != 23 {
		t.Errorf("scope test = %v, want 23", got)
	}
}

func TestConstAssignmentFails(t *testing.T) {
	_, err := NewContext().Eval("const k = 1; k = 2;")
	if err == nil || !strings.Contains(err.Error(), "constant") {
		t.Errorf("assigning to const: err = %v, want constant error", err)
	}
}

func TestConstRequiresInit(t *testing.T) {
	if _, err := NewContext().Eval("const k;"); err == nil {
		t.Error("const without initializer parsed")
	}
}

func TestUndefinedVariable(t *testing.T) {
	_, err := NewContext().Eval("nosuchvar + 1")
	var rt *RuntimeError
	if !errors.As(err, &rt) || !strings.Contains(rt.Msg, "not defined") {
		t.Errorf("undefined var: err = %v", err)
	}
}

func TestCompoundAssignment(t *testing.T) {
	src := `
		var x = 10;
		x += 5; x -= 3; x *= 2; x /= 4; x %= 4;
		x
	`
	// ((10+5-3)*2)/4 = 6; 6 % 4 = 2
	if got := evalNum(t, src); got != 2 {
		t.Errorf("compound assignment = %v, want 2", got)
	}
}

func TestIncrementDecrement(t *testing.T) {
	src := `
		var x = 5;
		var a = x++;
		var b = ++x;
		var c = x--;
		var d = --x;
		"" + a + b + c + d + x
	`
	if got := evalVal(t, src); got != "57755" {
		t.Errorf("inc/dec = %v, want 57755", got)
	}
}

func TestIfElse(t *testing.T) {
	src := `
		function grade(n) {
			if (n >= 90) { return "A"; }
			else if (n >= 80) { return "B"; }
			else { return "C"; }
		}
		grade(95) + grade(85) + grade(10)
	`
	if got := evalVal(t, src); got != "ABC" {
		t.Errorf("if/else = %v, want ABC", got)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
		var sum = 0; var i = 0;
		while (i < 10) { sum += i; i++; }
		sum
	`
	if got := evalNum(t, src); got != 45 {
		t.Errorf("while = %v, want 45", got)
	}
}

func TestForLoop(t *testing.T) {
	src := `
		var sum = 0;
		for (var i = 0; i < 5; i++) { sum += i * i; }
		sum
	`
	if got := evalNum(t, src); got != 30 {
		t.Errorf("for = %v, want 30", got)
	}
}

func TestForLoopBreakContinue(t *testing.T) {
	src := `
		var sum = 0;
		for (var i = 0; i < 100; i++) {
			if (i % 2 == 0) { continue; }
			if (i > 10) { break; }
			sum += i;
		}
		sum
	`
	// 1+3+5+7+9 = 25
	if got := evalNum(t, src); got != 25 {
		t.Errorf("break/continue = %v, want 25", got)
	}
}

func TestForOfArray(t *testing.T) {
	src := `
		var total = 0;
		for (x of [1, 2, 3, 4]) { total += x; }
		total
	`
	if got := evalNum(t, src); got != 10 {
		t.Errorf("for-of array = %v, want 10", got)
	}
}

func TestForOfObjectKeys(t *testing.T) {
	src := `
		var ks = "";
		for (let k of {b: 1, a: 2}) { ks += k; }
		ks
	`
	if got := evalVal(t, src); got != "ab" {
		t.Errorf("for-of object = %v, want ab (sorted keys)", got)
	}
}

func TestForOfString(t *testing.T) {
	src := `
		var out = "";
		for (const ch of "abc") { out = ch + out; }
		out
	`
	if got := evalVal(t, src); got != "cba" {
		t.Errorf("for-of string = %v, want cba", got)
	}
}

func TestNestedLoopsBreakInner(t *testing.T) {
	src := `
		var count = 0;
		for (var i = 0; i < 3; i++) {
			for (var j = 0; j < 10; j++) {
				if (j == 2) { break; }
				count++;
			}
		}
		count
	`
	if got := evalNum(t, src); got != 6 {
		t.Errorf("nested break = %v, want 6", got)
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	src := `
		function makeCounter() {
			var n = 0;
			return function() { n++; return n; };
		}
		var c1 = makeCounter();
		var c2 = makeCounter();
		c1(); c1(); c2();
		"" + c1() + c2()
	`
	if got := evalVal(t, src); got != "32" {
		t.Errorf("closures = %v, want 32", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
		function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
		fib(15)
	`
	if got := evalNum(t, src); got != 610 {
		t.Errorf("fib(15) = %v, want 610", got)
	}
}

func TestHigherOrderFunctions(t *testing.T) {
	src := `
		function map(arr, f) {
			var out = [];
			for (x of arr) { push(out, f(x)); }
			return out;
		}
		var doubled = map([1,2,3], function(x) { return x * 2; });
		doubled[0] + doubled[1] + doubled[2]
	`
	if got := evalNum(t, src); got != 12 {
		t.Errorf("higher-order = %v, want 12", got)
	}
}

func TestMissingArgsAreNull(t *testing.T) {
	src := `
		function f(a, b) { return b == null ? "missing" : "present"; }
		f(1)
	`
	if got := evalVal(t, src); got != "missing" {
		t.Errorf("missing arg = %v", got)
	}
}

func TestArgumentsArray(t *testing.T) {
	src := `
		function count() { return arguments.length; }
		count(1, 2, 3, 4)
	`
	if got := evalNum(t, src); got != 4 {
		t.Errorf("arguments.length = %v, want 4", got)
	}
}

func TestArraysBasics(t *testing.T) {
	src := `
		var a = [1, 2, 3];
		a[0] = 10;
		a[3] = 40;
		a[0] + a[3] + a.length
	`
	if got := evalNum(t, src); got != 54 {
		t.Errorf("arrays = %v, want 54", got)
	}
}

func TestArrayOutOfRangeReadIsNull(t *testing.T) {
	if got := evalVal(t, "[1,2][5] == null"); got != true {
		t.Errorf("out-of-range read = %v, want null", got)
	}
}

func TestArrayAutoExtend(t *testing.T) {
	src := `
		var a = [];
		a[3] = 1;
		"" + a.length + (a[0] == null)
	`
	if got := evalVal(t, src); got != "4true" {
		t.Errorf("auto-extend = %v", got)
	}
}

func TestObjectsBasics(t *testing.T) {
	src := `
		var o = {name: "pose", "count": 2, nested: {x: 1}};
		o.count = o.count + 1;
		o["extra"] = o.nested.x;
		o.count + o.extra + len(o)
	`
	if got := evalNum(t, src); got != 8 {
		t.Errorf("objects = %v, want 8", got)
	}
}

func TestObjectMissingFieldIsNull(t *testing.T) {
	if got := evalVal(t, "({a: 1}).missing == null"); got != true {
		t.Errorf("missing field = %v, want null", got)
	}
}

func TestReferenceSemantics(t *testing.T) {
	src := `
		var a = [1];
		var b = a;
		push(b, 2);
		a.length
	`
	if got := evalNum(t, src); got != 2 {
		t.Errorf("reference semantics = %v, want 2", got)
	}
}

func TestThrowCatch(t *testing.T) {
	src := `
		function risky(n) {
			if (n < 0) { throw "negative input"; }
			return n * 2;
		}
		var result = "";
		try {
			result = risky(-1);
		} catch (e) {
			result = "caught: " + e;
		}
		result
	`
	if got := evalVal(t, src); got != "caught: negative input" {
		t.Errorf("throw/catch = %v", got)
	}
}

func TestFinallyRuns(t *testing.T) {
	src := `
		var log = "";
		try {
			try { throw "x"; } finally { log += "F"; }
		} catch (e) { log += "C"; }
		log
	`
	if got := evalVal(t, src); got != "FC" {
		t.Errorf("finally = %v, want FC", got)
	}
}

func TestUncaughtThrowSurfacesValue(t *testing.T) {
	_, err := NewContext().Eval(`throw {code: 42};`)
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("uncaught throw: %v", err)
	}
	obj, ok := rt.Thrown.(*Object)
	if !ok || obj.Get("code") != float64(42) {
		t.Errorf("Thrown = %v, want object with code 42", rt.Thrown)
	}
}

func TestTypeof(t *testing.T) {
	cases := map[string]string{
		"typeof 1":              "number",
		"typeof 'x'":            "string",
		"typeof true":           "boolean",
		"typeof null":           "null",
		"typeof [1]":            "array",
		"typeof {}":             "object",
		"typeof function() {}":  "function",
		"typeof len":            "function",
		"typeof undefined":      "null",
		"typeof (typeof false)": "string",
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("Eval(%q) = %v, want %q", src, got, want)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
		// a line comment
		var x = 1; /* block
		comment */ x += 2;
		x // trailing
	`
	if got := evalNum(t, src); got != 3 {
		t.Errorf("comments = %v, want 3", got)
	}
}

func TestDivisionByZero(t *testing.T) {
	if _, err := NewContext().Eval("1 / 0"); err == nil {
		t.Error("division by zero succeeded")
	}
	if _, err := NewContext().Eval("1 % 0"); err == nil {
		t.Error("modulo by zero succeeded")
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []string{
		"1 + null",
		"'a' - 1",
		"-'x'",
		"null < 1",
		"true * 2",
		"(null)()",
		"5()",
		"null.field",
		"null[0]",
		"(1).member",
	}
	for _, src := range cases {
		if _, err := NewContext().Eval(src); err == nil {
			t.Errorf("Eval(%q) succeeded, want type error", src)
		}
	}
}

func TestStepBudget(t *testing.T) {
	c := NewContext()
	c.SetMaxSteps(10_000)
	_, err := c.Eval("while (true) {}")
	var rt *RuntimeError
	if !errors.As(err, &rt) || !strings.Contains(rt.Msg, "step budget") {
		t.Errorf("infinite loop: err = %v, want step budget error", err)
	}
}

func TestStackDepthLimit(t *testing.T) {
	c := NewContext()
	_, err := c.Eval("function f() { return f(); } f()")
	var rt *RuntimeError
	if !errors.As(err, &rt) || !strings.Contains(rt.Msg, "depth") {
		t.Errorf("infinite recursion: err = %v, want depth error", err)
	}
}

func TestStepBudgetResetsPerInvocation(t *testing.T) {
	c := NewContext()
	c.SetMaxSteps(50_000)
	if err := c.Load("function work() { var s = 0; for (var i = 0; i < 1000; i++) { s += i; } return s; }"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Call("work"); err != nil {
			t.Fatalf("Call %d: %v (budget must reset per call)", i, err)
		}
	}
}

func TestContextIsolation(t *testing.T) {
	c1 := NewContext()
	c2 := NewContext()
	if err := c1.Load("var secret = 42;"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if _, err := c2.Eval("secret"); err == nil {
		t.Error("contexts share globals; must be isolated")
	}
}

func TestHostBinding(t *testing.T) {
	c := NewContext()
	var got []Value
	c.Bind("call_service", func(args []Value) (Value, error) {
		got = args
		return "service-result", nil
	})
	v, err := c.Eval(`call_service("pose_detector", {frame: 7})`)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if v != "service-result" {
		t.Errorf("host call = %v", v)
	}
	if len(got) != 2 || got[0] != "pose_detector" {
		t.Errorf("host args = %v", got)
	}
	if obj, ok := got[1].(*Object); !ok || obj.Get("frame") != float64(7) {
		t.Errorf("host arg 1 = %v, want object", got[1])
	}
}

func TestHostErrorIsCatchable(t *testing.T) {
	c := NewContext()
	c.Bind("failing", func(args []Value) (Value, error) {
		return nil, errors.New("service unavailable")
	})
	v, err := c.Eval(`
		var out = "";
		try { failing(); } catch (e) { out = e; }
		out
	`)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if s, ok := v.(string); !ok || !strings.Contains(s, "service unavailable") {
		t.Errorf("caught host error = %v", v)
	}
}

func TestCallUndefinedFunction(t *testing.T) {
	if _, err := NewContext().Call("no_such_fn"); err == nil {
		t.Error("Call on undefined function succeeded")
	}
}

// A Call that finds no function ran nothing, so it must not leave the
// previous invocation's step count to be read — and metered on
// script.<module>.instructions — a second time.
func TestCallUndefinedFunctionResetsLastInstructions(t *testing.T) {
	c := NewContext()
	if err := c.Load("var n = 0; for (var i = 0; i < 10; i++) { n += i; }"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	total := c.Instructions()
	if c.LastInstructions() == 0 || total != c.LastInstructions() {
		t.Fatalf("after Load: last %d, total %d", c.LastInstructions(), total)
	}
	if _, err := c.Call("event_received"); err == nil {
		t.Fatal("Call on undefined function succeeded")
	}
	if got := c.LastInstructions(); got != 0 {
		t.Errorf("LastInstructions after a Call that ran nothing = %d, want 0", got)
	}
	if got := c.Instructions(); got != total {
		t.Errorf("Instructions moved from %d to %d", total, got)
	}
}

func TestCallWithArgs(t *testing.T) {
	c := NewContext()
	if err := c.Load("function add(a, b) { return a + b; }"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	v, err := c.Call("add", float64(2), float64(3))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if v != float64(5) {
		t.Errorf("Call(add, 2, 3) = %v, want 5", v)
	}
}

func TestHasAndGlobal(t *testing.T) {
	c := NewContext()
	if err := c.Load("function init() {} var state = 9;"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !c.Has("init") {
		t.Error("Has(init) = false")
	}
	if c.Has("event_received") {
		t.Error("Has(event_received) = true for undeclared fn")
	}
	v, ok := c.Global("state")
	if !ok || v != float64(9) {
		t.Errorf("Global(state) = %v, %v", v, ok)
	}
}

func TestModuleStatePersistsAcrossCalls(t *testing.T) {
	// The module pattern from the paper: encapsulated state mutated by
	// successive event_received invocations.
	c := NewContext()
	src := `
		var frames_seen = 0;
		function event_received(message) {
			frames_seen++;
			return frames_seen;
		}
	`
	if err := c.Load(src); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i := 1; i <= 3; i++ {
		v, err := c.Call("event_received", NewObject())
		if err != nil {
			t.Fatalf("Call: %v", err)
		}
		if v != float64(i) {
			t.Errorf("call %d = %v, want %d", i, v, i)
		}
	}
}

func TestNaNHandling(t *testing.T) {
	v := evalVal(t, "num('not a number')")
	if n, ok := v.(float64); !ok || !math.IsNaN(n) {
		t.Errorf("num(junk) = %v, want NaN", v)
	}
	if got := evalVal(t, "is_nan(num('x'))"); got != true {
		t.Errorf("is_nan = %v", got)
	}
}

func TestSyntaxErrors(t *testing.T) {
	cases := []string{
		"var = 3",
		"function () {}", // decl needs name... parsed as expr stmt: function expr without name then `{}` — actually "function () {}" is a valid function expression statement. Hmm.
		"if true {}",
		"while () {}",
		"var a = ;",
		"a +",
		"[1, 2",
		"{a: }",
		"'unterminated",
		"/* unterminated",
		"1 ?? 2",
		"try {}",
		"x ==",
	}
	for _, src := range cases {
		if src == "function () {}" {
			continue // valid: anonymous function expression statement
		}
		if _, err := NewContext().Eval(src); err == nil {
			t.Errorf("Eval(%q) succeeded, want syntax error", src)
		}
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := NewContext().Eval("var x = 1;\nvar = 2;")
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want SyntaxError", err)
	}
	if se.Pos.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Pos.Line)
	}
}

func TestRuntimeErrorHasPosition(t *testing.T) {
	_, err := NewContext().Eval("var x = 1;\n\nboom()")
	var rt *RuntimeError
	if !errors.As(err, &rt) {
		t.Fatalf("err = %v, want RuntimeError", err)
	}
	if rt.Pos.Line != 3 {
		t.Errorf("error line = %d, want 3", rt.Pos.Line)
	}
}

func TestStringifyFormats(t *testing.T) {
	cases := map[string]string{
		`str(null)`:           "null",
		`str(1.5)`:            "1.5",
		`str(3)`:              "3",
		`str(true)`:           "true",
		`str([1, "a", null])`: `[1, a, null]`,
		`str({b: 2, a: 1})`:   "{a: 1, b: 2}",
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("Eval(%q) = %q, want %q", src, got, want)
		}
	}
}
