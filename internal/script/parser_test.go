package script

import (
	"strings"
	"testing"
)

func TestOperatorPrecedenceMatrix(t *testing.T) {
	cases := map[string]float64{
		"2 + 3 * 4 - 1":           13,
		"2 * 3 % 4":               2,
		"10 - 4 - 3":              3, // left associative
		"100 / 10 / 2":            5,
		"2 + 8 / 4":               4,
		"-2 * -3":                 6,
		"(1 + 2) * (3 + 4)":       21,
		"1 + (true ? 10 : 20)":    11,
		"2 * (1 < 2 ? 5 : 7) + 1": 11,
	}
	for src, want := range cases {
		if got := evalNum(t, src); got != want {
			t.Errorf("eval(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestComparisonChainsViaLogic(t *testing.T) {
	cases := map[string]bool{
		"1 < 2 == true":            true,
		"!(3 < 2) && (2 <= 2)":     true,
		"1 + 1 == 2 && 2 + 2 == 4": true,
		"false || false || true":   true,
		"true && true && false":    false,
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("eval(%q) = %v, want %v", src, got, want)
		}
	}
}

func TestAssignmentIsExpression(t *testing.T) {
	src := `
		var a = 0; var b = 0;
		b = (a = 5) + 1;
		"" + a + b
	`
	if got := evalVal(t, src); got != "56" {
		t.Errorf("chained assignment = %v", got)
	}
}

func TestNestedFunctionsAndShadowing(t *testing.T) {
	src := `
		var x = "outer";
		function wrap() {
			var x = "inner";
			function read() { return x; }
			return read();
		}
		wrap() + ":" + x
	`
	if got := evalVal(t, src); got != "inner:outer" {
		t.Errorf("shadowing = %v", got)
	}
}

func TestClosureCapturesVariableNotValue(t *testing.T) {
	src := `
		var n = 1;
		function get() { return n; }
		n = 42;
		get()
	`
	if got := evalNum(t, src); got != 42 {
		t.Errorf("closure capture = %v, want 42 (by reference)", got)
	}
}

func TestFunctionExpressionImmediatelyInvoked(t *testing.T) {
	if got := evalNum(t, "(function(a, b) { return a * b; })(6, 7)"); got != 42 {
		t.Errorf("IIFE = %v", got)
	}
}

func TestNamedFunctionExpression(t *testing.T) {
	src := `
		var f = function fact(n) { return n < 2 ? 1 : n * 2; };
		f(5)
	`
	if got := evalNum(t, src); got != 10 {
		t.Errorf("named function expression = %v", got)
	}
}

func TestObjectLiteralKeyForms(t *testing.T) {
	src := `
		var o = {plain: 1, "quoted key": 2, 3: 4, function: 5};
		o.plain + o["quoted key"] + o["3"] + o["function"]
	`
	if got := evalNum(t, src); got != 12 {
		t.Errorf("key forms = %v", got)
	}
}

func TestKeywordAsMemberName(t *testing.T) {
	if got := evalNum(t, `var o = {return: 7}; o.return`); got != 7 {
		t.Errorf("keyword member = %v", got)
	}
}

func TestDeeplyNestedStructures(t *testing.T) {
	src := `
		var cfg = {
			pipeline: {
				modules: [
					{name: "pose", services: ["pose_detector"]},
					{name: "display", services: []}
				]
			}
		};
		cfg.pipeline.modules[0].services[0] + ":" + str(len(cfg.pipeline.modules))
	`
	if got := evalVal(t, src); got != "pose_detector:2" {
		t.Errorf("nested access = %v", got)
	}
}

func TestWhileWithComplexCondition(t *testing.T) {
	src := `
		var i = 0; var sum = 0;
		while (i < 100 && sum < 20) { sum += i; i++; }
		"" + i + "/" + sum
	`
	// 0+1+2+3+4+5+6 = 21 >= 20 after i=7
	if got := evalVal(t, src); got != "7/21" {
		t.Errorf("complex while = %v", got)
	}
}

func TestForOfNestedBreak(t *testing.T) {
	src := `
		var found = "";
		for (row of [[1,2],[3,4],[5,6]]) {
			for (v of row) {
				if (v == 4) { found = "got4"; break; }
			}
			if (found != "") { break; }
		}
		found
	`
	if got := evalVal(t, src); got != "got4" {
		t.Errorf("nested for-of break = %v", got)
	}
}

func TestReturnInsideLoopInsideFunction(t *testing.T) {
	src := `
		function firstEven(arr) {
			for (x of arr) {
				if (x % 2 == 0) { return x; }
			}
			return null;
		}
		str(firstEven([3, 5, 8, 9])) + str(firstEven([1]))
	`
	if got := evalVal(t, src); got != "8null" {
		t.Errorf("return in loop = %v", got)
	}
}

func TestThrowInsideNestedCallsCaught(t *testing.T) {
	src := `
		function a() { b(); }
		function b() { c(); }
		function c() { throw "deep"; }
		var out = "";
		try { a(); } catch (e) { out = "caught " + e; }
		out
	`
	if got := evalVal(t, src); got != "caught deep" {
		t.Errorf("deep throw = %v", got)
	}
}

func TestRethrow(t *testing.T) {
	src := `
		var log = "";
		try {
			try { throw "x"; }
			catch (e) { log += "inner;"; throw e; }
		} catch (e2) { log += "outer:" + e2; }
		log
	`
	if got := evalVal(t, src); got != "inner;outer:x" {
		t.Errorf("rethrow = %v", got)
	}
}

func TestCatchWithoutBinding(t *testing.T) {
	src := `
		var ok = false;
		try { throw 1; } catch { ok = true; }
		ok
	`
	if got := evalVal(t, src); got != true {
		t.Errorf("bindingless catch = %v", got)
	}
}

func TestBreakOutsideLoopIsError(t *testing.T) {
	for _, src := range []string{"break;", "continue;", "function f() { break; } f()"} {
		if err := NewContext().Load(src); err == nil {
			t.Errorf("eval(%q) succeeded, want control-flow error", src)
		}
	}
}

func TestReturnAtTopLevelIsError(t *testing.T) {
	if err := NewContext().Load("return 5;"); err == nil {
		t.Error("top-level return accepted")
	}
}

func TestSemicolonsLargelyOptional(t *testing.T) {
	src := `
		var a = 1
		var b = 2
		function f(x) { return x + 1 }
		f(a) + b
	`
	if got := evalNum(t, src); got != 4 {
		t.Errorf("semicolon-free = %v", got)
	}
}

func TestUnicodeStringsAndEscapes(t *testing.T) {
	cases := map[string]string{
		`"héllo"`: "héllo",
		`"Aé"`:    "Aé",
		`'日本'`:    "日本",
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("eval(%s) = %q, want %q", src, got, want)
		}
	}
}

func TestIdentifiersWithDollarAndUnderscore(t *testing.T) {
	if got := evalNum(t, "var _x$2 = 9; _x$2"); got != 9 {
		t.Errorf("ident charset = %v", got)
	}
}

func TestLongChainedMemberCalls(t *testing.T) {
	src := `
		var data = {get: function() { return {inner: function() { return 99; }}; }};
		data.get().inner()
	`
	if got := evalNum(t, src); got != 99 {
		t.Errorf("chained calls = %v", got)
	}
}

func TestEmptyProgramAndWhitespace(t *testing.T) {
	for _, src := range []string{"", "   \n\t  ", "// only a comment", "/* block */"} {
		if err := NewContext().Load(src); err != nil {
			t.Errorf("eval(%q): %v", src, err)
		}
	}
}

func TestLoadThenEvalSharesGlobals(t *testing.T) {
	c := NewContext()
	if err := c.Load("var base = 10; function add(n) { return base + n; }"); err != nil {
		t.Fatalf("Load: %v", err)
	}
	v, err := evalIn(c, "add(5)")
	if err != nil || v != float64(15) {
		t.Errorf("Eval after Load = %v, %v", v, err)
	}
}

func TestSyntaxErrorMessagesAreHelpful(t *testing.T) {
	err := NewContext().Load("if (x {}")
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Errorf("error = %v, want 'expected ...'", err)
	}
}

func TestVeryLongArrayLiteral(t *testing.T) {
	var b strings.Builder
	b.WriteString("len([")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("1")
	}
	b.WriteString("])")
	if got := evalNum(t, b.String()); got != 2000 {
		t.Errorf("long array len = %v", got)
	}
}

func TestSwitchBasic(t *testing.T) {
	src := `
		function grade(activity) {
			switch (activity) {
			case "squat": return "legs";
			case "clap":
			case "wave": return "arms";
			default: return "unknown";
			}
		}
		grade("squat") + "/" + grade("clap") + "/" + grade("wave") + "/" + grade("rest")
	`
	if got := evalVal(t, src); got != "legs/arms/arms/unknown" {
		t.Errorf("switch = %v", got)
	}
}

func TestSwitchFallThrough(t *testing.T) {
	src := `
		var log = "";
		switch (2) {
		case 1: log += "one;";
		case 2: log += "two;";
		case 3: log += "three;";
		}
		log
	`
	if got := evalVal(t, src); got != "two;three;" {
		t.Errorf("fall-through = %v", got)
	}
}

func TestSwitchBreakStops(t *testing.T) {
	src := `
		var log = "";
		switch ("b") {
		case "a": log += "a"; break;
		case "b": log += "b"; break;
		case "c": log += "c"; break;
		}
		log
	`
	if got := evalVal(t, src); got != "b" {
		t.Errorf("switch break = %v", got)
	}
}

func TestSwitchNoMatchNoDefault(t *testing.T) {
	src := `
		var ran = false;
		switch (99) { case 1: ran = true; }
		ran
	`
	if got := evalVal(t, src); got != false {
		t.Errorf("no-match switch ran a case: %v", got)
	}
}

func TestSwitchStrictEquality(t *testing.T) {
	// "1" does not match 1 — PipeScript has no coercion.
	src := `
		var out = "none";
		switch ("1") { case 1: out = "number"; default: out = "default"; }
		out
	`
	if got := evalVal(t, src); got != "default" {
		t.Errorf("strict switch = %v", got)
	}
}

func TestSwitchInsideLoop(t *testing.T) {
	// break inside switch terminates the switch, not the loop.
	src := `
		var count = 0;
		for (var i = 0; i < 5; i++) {
			switch (i % 2) {
			case 0: count += 10; break;
			case 1: count += 1; break;
			}
		}
		count
	`
	if got := evalNum(t, src); got != 32 {
		t.Errorf("switch in loop = %v, want 32", got)
	}
}

func TestSwitchReturnFromFunction(t *testing.T) {
	src := `
		function f(x) {
			switch (x) { case 1: return "one"; }
			return "other";
		}
		f(1) + f(2)
	`
	if got := evalVal(t, src); got != "oneother" {
		t.Errorf("switch return = %v", got)
	}
}

func TestSwitchSyntaxErrors(t *testing.T) {
	cases := []string{
		`switch (1) { case 1 }`,            // missing colon
		`switch (1) { default: default: }`, // duplicate default
		`switch (1) { banana: 1; }`,        // not case/default
		`switch (1) { case 1:`,             // unterminated
		`switch 1 { case 1: }`,             // missing parens
	}
	for _, src := range cases {
		if err := NewContext().Load(src); err == nil {
			t.Errorf("eval(%q) succeeded, want syntax error", src)
		}
	}
}
