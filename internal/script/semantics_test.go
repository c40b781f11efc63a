package script

import (
	"strings"
	"testing"
)

// The semantics corpus: small programs whose result, error text and position,
// and step counts were recorded by running the map-environment interpreter
// (the parent of the slot-frame change) and are asserted as literals here.
// They pin the scoping rules docs/PIPESCRIPT.md states — a block scope is
// populated as its declarations execute, so a reference that runs before its
// scope's `var` sees the enclosing binding — and the step counter, which
// pipecost bounds statically and must not move when the evaluator does.

// semCase is one pinned program: Load src, apply the optional mid hook, then
// evaluate eval (or Call call with callArgs). An eval whose case wants an
// error runs as top-level statements, so its positions and call depth are
// the top level's; one that wants a value runs through evalIn. runInstr
// counts eval's own steps either way: the statement step Load adds, or the
// wrapper's return statement, is taken off.
type semCase struct {
	name     string
	src      string
	mid      string
	eval     string
	call     string
	callArgs []Value
	// want is the stringified result, or "error: " / "load error: " plus the
	// error text; loadInstr and runInstr are LastInstructions after each phase.
	want      string
	loadInstr int64
	runInstr  int64
}

// semMid changes the context between Load and the run, so already-loaded
// functions must find globals that did not exist when they were resolved.
func semMid(t *testing.T, c *Context, mid string) {
	t.Helper()
	switch mid {
	case "":
	case "bind":
		c.Bind("late_host", func(a []Value) (Value, error) { return a[0].(float64) * 21, nil })
	case "limit50":
		c.SetLimits(Limits{Instructions: 50})
	case "restore":
		src := NewContext()
		if err := src.Load(`var kept = 5; var fresh = 7;`); err != nil {
			t.Fatal(err)
		}
		c.Restore(src.Snapshot())
	default:
		t.Fatalf("unknown mid hook %q", mid)
	}
}

func semRun(t *testing.T, sc semCase) (got string, loadInstr, runInstr int64) {
	t.Helper()
	c := NewContext()
	if err := c.Load(sc.src); err != nil {
		return "load error: " + err.Error(), c.LastInstructions(), 0
	}
	loadInstr = c.LastInstructions()
	semMid(t, c, sc.mid)
	var v Value
	var err error
	switch {
	case sc.call != "":
		v, err = c.Call(sc.call, sc.callArgs...)
		runInstr = c.LastInstructions()
	case strings.HasPrefix(sc.want, "error: "):
		err = c.Load(sc.eval)
		runInstr = c.LastInstructions() - 1
	default:
		v, runInstr, err = evalSteps(c, sc.eval)
	}
	if err != nil {
		return "error: " + err.Error(), loadInstr, runInstr
	}
	return cellOf(v).display(), loadInstr, runInstr
}

func TestInterpSemanticsPinned(t *testing.T) {
	for _, sc := range semCases {
		t.Run(sc.name, func(t *testing.T) {
			got, loadInstr, runInstr := semRun(t, sc)
			if got != sc.want {
				t.Errorf("result = %s\nwant     %s", got, sc.want)
			}
			if loadInstr != sc.loadInstr || runInstr != sc.runInstr {
				t.Errorf("instructions load/run = %d/%d, want %d/%d", loadInstr, runInstr, sc.loadInstr, sc.runInstr)
			}
		})
	}
}

var semCases = []semCase{
	{name: "shadow_nested_blocks", src: `var x = 1; var out = []; { var x = 2; { var x = 3; push(out, x); } push(out, x); } push(out, x);`, eval: `out`,
		want: `[3, 2, 1]`, loadInstr: 25, runInstr: 1},
	{name: "ref_before_decl_sees_outer", src: `var x = "outer"; var seen; { seen = x; var x = "inner"; seen = seen + "," + x; }`, eval: `seen`,
		want: `outer,inner`, loadInstr: 16, runInstr: 1},
	{name: "ref_before_decl_undefined", src: `var ok = 1;
{ var y = z; var z = 1; }`, eval: `ok`,
		want: `load error: script: runtime error at 2:11: "z" is not defined`, loadInstr: 5, runInstr: 0},
	{name: "ref_before_decl_in_function", src: `var x = 10; function f() { var a = x; var x = 20; return a + x; }`, eval: `f()`,
		want: `30`, loadInstr: 3, runInstr: 10},
	{name: "nested_fn_reads_later_var", src: `function outer() { function inner() { return late; } var late = 7; return inner(); }`, eval: `outer()`,
		want: `7`, loadInstr: 1, runInstr: 10},
	{name: "nested_fn_before_and_after_decl", src: `var late = "g"; function outer() { function inner() { return late; } var r = inner(); var late = "l"; return r + inner(); }`, eval: `outer()`,
		want: `gl`, loadInstr: 3, runInstr: 17},
	{name: "loop_closures_fresh_block_shared_init", src: `var fs = []; for (var i = 0; i < 3; i++) { var j = i * 10; push(fs, function() { return j + i; }); } var out = []; for (var f of fs) { push(out, f()); }`, eval: `out`,
		want: `[3, 13, 23]`, loadInstr: 97, runInstr: 1},
	{name: "for_init_shared_by_closures", src: `var fs = []; for (var i = 0; i < 2; i++) push(fs, function() { return i; });`, eval: `[fs[0](), fs[1]()]`,
		want: `[2, 2]`, loadInstr: 31, runInstr: 13},
	{name: "for_body_decl_lands_in_for_scope", src: `var out = []; for (var i = 0; i < 2; i++) var q = i;`, eval: `q`,
		want: `error: script: runtime error at 1:1: "q" is not defined`, loadInstr: 25, runInstr: 1},
	{name: "same_scope_redeclaration", src: `var x = 1; var x = 2; function f() { var a = 1; var g = function() { return a; }; var a = 5; return g(); }`, eval: `[x, f()]`,
		want: `[2, 5]`, loadInstr: 5, runInstr: 15},
	{name: "const_global_assign", src: `const k = 1; function f() { k = 2; }`, eval: `f()`,
		want: `error: script: runtime error at 1:29: cannot assign to constant "k"`, loadInstr: 3, runInstr: 5},
	{name: "const_local_compound_assign", src: `function f() { const c = 1;
  c += 1; return c; }`, eval: `f()`,
		want: `error: script: runtime error at 2:3: cannot assign to constant "c"`, loadInstr: 1, runInstr: 8},
	{name: "const_local_update", src: `function f() { const c = 1; c++; return c; }`, eval: `f()`,
		want: `error: script: runtime error at 1:29: cannot assign to constant "c"`, loadInstr: 1, runInstr: 7},
	{name: "const_then_var_redeclared", src: `function f() { const c = 1; var c = 2; c = 3; return c; }`, eval: `f()`,
		want: `3`, loadInstr: 1, runInstr: 11},
	{name: "var_then_const_redeclared", src: `var d = 1; const d = 2; d = 3;`, eval: `d`,
		want: `load error: script: runtime error at 1:25: cannot assign to constant "d"`, loadInstr: 7, runInstr: 0},
	{name: "arguments_basic", src: `function f(a) { return len(arguments) + arguments[1]; }`, eval: `f(1, 5, 9)`,
		want: `8`, loadInstr: 1, runInstr: 13},
	{name: "arguments_shadows_param", src: `function f(arguments) { return arguments; }`, eval: `f(4)`,
		want: `[4]`, loadInstr: 1, runInstr: 5},
	{name: "arguments_nested_function", src: `function f() { var g = function() { return len(arguments); }; return g(1, 2) * 10 + len(arguments); }`, eval: `f(1, 2, 3)`,
		want: `23`, loadInstr: 1, runInstr: 22},
	{name: "arguments_redeclared_in_block", src: `function f() { var n = len(arguments); { var m = arguments; var arguments = "mine"; return [n, len(m), arguments]; } }`, eval: `f(1, 2)`,
		want: `[2, 2, mine]`, loadInstr: 1, runInstr: 20},
	{name: "arguments_top_level", src: `var ok = 1;`, eval: `arguments`,
		want: `error: script: runtime error at 1:1: "arguments" is not defined`, loadInstr: 2, runInstr: 1},
	{name: "missing_and_extra_args", src: `function f(a, b) { return [a, b]; }`, eval: `[f(1), f(1, 2, 3)]`,
		want: `[[1, null], [1, 2]]`, loadInstr: 1, runInstr: 17},
	{name: "duplicate_params", src: `function f(a, a) { return a; }`, eval: `[f(1, 2), f(1)]`,
		want: `[2, null]`, loadInstr: 1, runInstr: 12},
	{name: "catch_scope", src: `var e = "outer"; var got; try { throw "boom"; } catch (e) { got = e; var inner = 1; }`, eval: `[got, e]`,
		want: `[boom, outer]`, loadInstr: 12, runInstr: 3},
	{name: "catch_decl_not_visible_after", src: `try { throw 1; } catch (e) { var inner = 1; }`, eval: `inner`,
		want: `error: script: runtime error at 1:1: "inner" is not defined`, loadInstr: 6, runInstr: 1},
	{name: "catch_host_error_text", src: `var got; try { json_decode("{"); } catch (e) { got = typeof e; }`, eval: `got`,
		want: `string`, loadInstr: 12, runInstr: 1},
	{name: "runtime_error_not_catchable", src: `var got = "no";
try { null.x; } catch (e) { got = "caught"; }`, eval: `got`,
		want: `load error: script: runtime error at 2:11: cannot read "x" of null`, loadInstr: 7, runInstr: 0},
	{name: "finally_overrides_return", src: `function f() { try { return 1; } finally { return 2; } }`, eval: `f()`,
		want: `2`, loadInstr: 1, runInstr: 9},
	{name: "throw_object_uncaught", src: `function f() { throw {code: 7}; }`, eval: `f()`,
		want: `error: script: runtime error at 1:16: uncaught exception: {code: 7}`, loadInstr: 1, runInstr: 5},
	{name: "switch_scope_shared_fallthrough", src: `function f(v) { var out = []; switch (v) { case 1: var s = "one"; case 2: push(out, s); break; default: push(out, "d"); } return out; }`, eval: `[f(1), f(3)]`,
		want: `[[one], [d]]`, loadInstr: 1, runInstr: 35},
	{name: "switch_skipped_decl_undefined", src: `function f(v) { switch (v) { case 1: var s = "one"; case 2: return s; } }`, eval: `f(2)`,
		want: `error: script: runtime error at 1:68: "s" is not defined`, loadInstr: 1, runInstr: 9},
	{name: "switch_skipped_decl_sees_outer", src: `var s = "g"; function f(v) { switch (v) { case 1: var s = "one"; case 2: return s; } }`, eval: `[f(1), f(2), f(3)]`,
		want: `[one, g, null]`, loadInstr: 3, runInstr: 27},
	{name: "for_of_array_object_string_null", src: `var out = []; for (var v of [1, 2]) push(out, v); for (var k of {b: 1, a: 2}) push(out, k); for (var ch of "hé") push(out, ch); for (var n of null) push(out, n);`, eval: `out`,
		// 52: listing {b, a}'s keys costs what keys() does, 2·⌈log₂ 2⌉ steps.
		want: `[1, 2, a, b, h, é]`, loadInstr: 52, runInstr: 1},
	{name: "for_of_number_error", src: `var ok = 1;
for (var v of 5) { ok = 2; }`, eval: `ok`,
		want: `load error: script: runtime error at 2:1: for-of requires array, object or string, got number`, loadInstr: 4, runInstr: 0},
	{name: "for_of_fresh_binding_per_iteration", src: `var fs = []; for (var v of [1, 2, 3]) { push(fs, function() { return v; }); }`, eval: `[fs[0](), fs[2]()]`,
		want: `[1, 3]`, loadInstr: 28, runInstr: 13},
	{name: "for_of_break_continue", src: `var out = []; for (var v of [1, 2, 3, 4]) { if (v == 2) continue; if (v == 4) break; push(out, v); }`, eval: `out`,
		want: `[1, 3]`, loadInstr: 56, runInstr: 1},
	{name: "recursion_fib", src: `function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }`, eval: `fib(12)`,
		want: `144`, loadInstr: 1, runInstr: 5113},
	// Called from Go, as an event is: evalIn's wrapper would be one frame
	// past the limit.
	{name: "recursion_at_depth_limit", src: `function d(n) { if (n == 0) return 0; return 1 + d(n - 1); }`, call: "d", callArgs: []Value{199.0},
		want: `199`, loadInstr: 1, runInstr: 2394},
	{name: "recursion_past_depth_limit", src: `function d(n) { if (n == 0) return 0;
  return 1 + d(n - 1); }`, eval: `d(200)`,
		want: `error: script: runtime error at 2:15: call stack depth limit exceeded`, loadInstr: 1, runInstr: 2403},
	{name: "recursion_unbounded", src: `function r(n) { return r(n + 1); }`, eval: `r(0)`,
		want: `error: script: runtime error at 1:25: call stack depth limit exceeded`, loadInstr: 1, runInstr: 1203},
	{name: "global_bound_after_load", src: `function f() { return late_host(2); }`, mid: "bind", eval: `f()`,
		want: `42`, loadInstr: 1, runInstr: 6},
	{name: "global_restored_after_load", src: `var kept = 1; function f() { return kept + fresh; }`, mid: "restore", eval: `f()`,
		want: `12`, loadInstr: 3, runInstr: 6},
	{name: "global_never_defined", src: `function f() { return nope; }`, eval: `f()`,
		want: `error: script: runtime error at 1:23: "nope" is not defined`, loadInstr: 1, runInstr: 4},
	{name: "typeof_and_equality_on_numbers", src: `var nan = sqrt(-1); var nz = -0;`, eval: `[typeof 1, typeof nan, typeof nz, nan == nan, nan != nan, nz == 0, 0 == nz, 1 == 1, 1 == "1", null == 0, typeof null, !nan, !nz, str(nz), nan < 1, nan >= 1, str(nan)]`,
		want: `[number, number, number, false, true, true, true, true, false, false, null, true, true, 0, false, false, NaN]`, loadInstr: 8, runInstr: 46},
	{name: "number_survives_container_round_trip", src: `function f() { var n = 0; var a = []; var o = {}; for (var i = 0; i < 3; i++) { n += i; push(a, n); a[i] = a[i] * 2; o.last = n; } return [a, o.last, n == o.last]; }`, eval: `f()`,
		want: `[[0, 2, 6], 3, true]`, loadInstr: 1, runInstr: 111},
	{name: "update_expressions", src: `var i = 5; var a = i++; var b = ++i; var c = i--; var d = --i; var o = {n: 1}; o.n++; var arr = [1]; arr[0]--;`, eval: `[a, b, c, d, i, o.n, arr[0]]`,
		want: `[5, 7, 7, 5, 5, 2, 0]`, loadInstr: 32, runInstr: 11},
	{name: "update_non_number", src: `var s = "a";
s++;`, eval: `s`,
		want: `load error: script: runtime error at 2:2: ++ requires a number, got string`, loadInstr: 5, runInstr: 0},
	{name: "update_undefined", src: `zz++;`, eval: `1`,
		want: `load error: script: runtime error at 1:1: "zz" is not defined`, loadInstr: 3, runInstr: 0},
	{name: "compound_assignment", src: `var x = 1; x += 2; x *= 3; x -= 1; x /= 2; x %= 3; var s = "a"; s += 1; var o = {k: 2}; o.k *= 5; var a = [1]; a[0] += 1;`, eval: `[x, s, o.k, a[0]]`,
		want: `[1, a1, 10, 2]`, loadInstr: 48, runInstr: 8},
	{name: "compound_assignment_undefined", src: `zz += 1;`, eval: `1`,
		want: `load error: script: runtime error at 1:1: "zz" is not defined`, loadInstr: 4, runInstr: 0},
	{name: "assign_undefined", src: `function f() { zz = 1; }`, eval: `f()`,
		want: `error: script: runtime error at 1:16: "zz" is not defined`, loadInstr: 1, runInstr: 5},
	{name: "closure_counters_independent", src: `function mk() { var n = 0; return function() { n++; return n; }; } var c1 = mk(); var c2 = mk(); c1(); c1();`, eval: `[c1(), c2()]`,
		want: `[3, 1]`, loadInstr: 31, runInstr: 15},
	{name: "closure_over_param", src: `function mk(k) { return function(x) { return x * k; }; }`, eval: `mk(3)(4)`,
		want: `12`, loadInstr: 1, runInstr: 11},
	{name: "if_decl_lands_in_enclosing_scope", src: `var x = "g"; function f(c) { if (c) var x = "l"; return x; }`, eval: `[f(true), f(false)]`,
		want: `[l, g]`, loadInstr: 3, runInstr: 17},
	{name: "while_ref_precedes_decl_textually", src: `var x = "g"; function f() { var out = []; var k = 0; while (k < 3) if (k++ != 1) push(out, x); else var x = "l"; return out; }`, eval: `f()`,
		want: `[g, l]`, loadInstr: 3, runInstr: 52},
	{name: "block_function_decl_not_hoisted", src: `var r = 0;
{ r = g(); function g() { return 1; } }`, eval: `r`,
		want: `load error: script: runtime error at 2:7: "g" is not defined`, loadInstr: 7, runInstr: 0},
	{name: "function_decl_in_function_not_hoisted", src: `function f() { return g(); function g() { return 1; } }`, eval: `f()`,
		want: `error: script: runtime error at 1:23: "g" is not defined`, loadInstr: 1, runInstr: 5},
	{name: "block_function_decl_scoped", src: `var r; { function g() { return 1; } r = g(); }`, eval: `[r, g]`,
		want: `error: script: runtime error at 1:5: "g" is not defined`, loadInstr: 9, runInstr: 3},
	{name: "string_concat_and_number_format", src: `var s = "" + 1.5 + 2 + -0 + 1e21 + true + null;`, eval: `s`,
		want: `1.5201e+21truenull`, loadInstr: 15, runInstr: 1},
	{name: "logical_returns_operand", src: `var ok = 1;`, eval: `[0 || "a", 1 && 2, null && 1, 0 || null, "" || 0]`,
		want: `[a, 2, null, null, 0]`, loadInstr: 2, runInstr: 15},
	{name: "ternary_numbers", src: `function f(n) { return n < 0 ? -1 : n == 0 ? 0 : 1; }`, eval: `[f(-5), f(0), f(9)]`,
		want: `[-1, 0, 1]`, loadInstr: 1, runInstr: 38},
	{name: "binary_type_error", src: `var a = 1;
var b = a + null;`, eval: `b`,
		want: `load error: script: runtime error at 2:11: operator "+" requires numbers, got number and null`, loadInstr: 6, runInstr: 0},
	{name: "division_by_zero", src: `var a = 1; var z = 0;
var b = a / z;`, eval: `b`,
		want: `load error: script: runtime error at 2:11: division by zero`, loadInstr: 8, runInstr: 0},
	{name: "modulo_by_zero", src: `var b = 5 % 0;`, eval: `b`,
		want: `load error: script: runtime error at 1:11: modulo by zero`, loadInstr: 4, runInstr: 0},
	{name: "negate_non_number", src: `var b = -"a";`, eval: `b`,
		want: `load error: script: runtime error at 1:9: cannot negate string`, loadInstr: 3, runInstr: 0},
	{name: "call_non_function_after_args", src: `var n = 0; function bump() { n++; return n; } var notfn = 3;
notfn(bump(), bump());`, eval: `n`,
		want: `load error: script: runtime error at 2:6: number is not callable`, loadInstr: 22, runInstr: 0},
	{name: "call_null", src: `var o = {}; o.missing(1);`, eval: `1`,
		want: `load error: script: runtime error at 1:22: cannot call null`, loadInstr: 7, runInstr: 0},
	{name: "top_level_return", src: `return 5;`, eval: `1`,
		want: `load error: script: runtime error at 0:0: return outside function`, loadInstr: 2, runInstr: 0},
	{name: "top_level_break", src: `break;`, eval: `1`,
		want: `load error: script: runtime error at 0:0: break outside loop`, loadInstr: 1, runInstr: 0},
	{name: "break_escapes_function_into_loop", src: `var n = 0; for (var i = 0; i < 5; i++) { n++; (function() { break; })(); }`, eval: `n`,
		want: `1`, loadInstr: 17, runInstr: 1},
	{name: "eval_statements_then_expression", src: `function f(a) { return a * 2; }`, eval: `var z = f(4); z + 1`,
		want: `9`, loadInstr: 1, runInstr: 11},
	{name: "call_from_go_missing_arg", src: `function f(a, b) { return [a, b, len(arguments)]; }`, call: "f", callArgs: []Value{1.0},
		want: `[1, null, 1]`, loadInstr: 1, runInstr: 7},
	{name: "call_from_go_host_builtin", src: `var ok = 1;`, call: "len", callArgs: []Value{"four"},
		want: `4`, loadInstr: 2, runInstr: 0},
	{name: "call_from_go_non_function", src: `var x = 5;`, call: "x",
		want: `error: script: runtime error at 0:0: number is not callable`, loadInstr: 2, runInstr: 0},
	{name: "call_from_go_closure_global", src: `var count = 0; function event_received(m) { count += m.n; return count; }`, call: "event_received", callArgs: []Value{FromGo(map[string]any{"n": 4.0})},
		want: `4`, loadInstr: 3, runInstr: 7},
	{name: "burn_loop", src: `function burn(n) { var acc = 0; for (var i = 0; i < n; i++) { acc = acc + i * 3; } return acc; }`, eval: `burn(400)`,
		want: `239400`, loadInstr: 1, runInstr: 5614},
	{name: "instruction_budget_position", src: `function spin() { var i = 0;
  while (true) { i++; } }`, mid: "limit50", call: "spin",
		want: `error: script: instructions budget exceeded at 2:18: used 51 of 50`, loadInstr: 1, runInstr: 51},
}
