package script

import (
	"errors"
	"strings"
	"testing"
)

// A host function that calls back into its own context runs the inner call
// on an invocation of its own: the outer call's steps, memory charge and
// instruction counts come out as they did when every invocation was a fresh
// allocation (the literals were recorded from that interpreter).
func TestCallReentrantKeepsOuterInvocation(t *testing.T) {
	const src = `
		function inner(n) {
			var a = [n, n, n];
			return "in" + str(n);
		}
		function outer(n) {
			var o = {a: n, b: [1, 2]};
			var s = callback(n);
			var t = [s, s, o];
			return len(t) + n;
		}
	`
	c := NewContext()
	c.SetLimits(Limits{Memory: 1 << 20})
	var before, after struct{ steps, mem int64 }
	var innerSteps int64
	c.Bind("callback", func(args []Value) (Value, error) {
		before.steps, before.mem = c.running.steps, c.running.memUsed
		v, err := c.Call("inner", args...)
		innerSteps = c.LastInstructions()
		after.steps, after.mem = c.running.steps, c.running.memUsed
		return v, err
	})
	if err := c.Load(src); err != nil {
		t.Fatal(err)
	}
	v, err := c.Call("outer", 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7.0 {
		t.Errorf("outer(4) = %v, want 7", v)
	}
	if c.running != nil {
		t.Error("an invocation is still running after Call returned")
	}
	type counts struct{ beforeSteps, beforeMem, afterSteps, afterMem, inner, last int64 }
	got := counts{before.steps, before.mem, after.steps, after.mem, innerSteps, c.LastInstructions()}
	want := counts{10, 208, 10, 208, 11, 21}
	if got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
}

// An invocation a budget aborts leaves nothing behind for the next one:
// the call after the breach runs on a fresh step and memory budget, and a
// second breach reports the same consumption as the first.
func TestBudgetAbortLeavesNextCallFresh(t *testing.T) {
	const src = `
		function spin() { while (true) {} }
		function hog() { var s = "x"; while (true) { s = s + s; } }
		function work(n) {
			var acc = 0;
			for (var i = 0; i < n; i++) { acc = acc + i; }
			return acc;
		}
		function big() { var s = BIG + "y"; return len(s); }
	`
	load := func(l Limits) *Context {
		c := NewContext()
		if err := c.Load(`var BIG = "` + strings.Repeat("x", 600) + `";` + src); err != nil {
			t.Fatal(err)
		}
		c.SetLimits(l)
		return c
	}
	// What work(12) costs on a context that never breached.
	ref := load(Limits{})
	if _, err := ref.Call("work", 12.0); err != nil {
		t.Fatal(err)
	}
	workSteps := ref.LastInstructions()

	cases := []struct {
		name, resource, abort, normal string
		arg                           Value
		limits                        Limits
	}{
		{"steps", ResourceInstructions, "spin", "work", 12.0, Limits{Instructions: workSteps + workSteps/4}},
		{"memory", ResourceMemory, "hog", "big", nil, Limits{Memory: 1000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := load(tc.limits)
			breach := func() *BudgetError {
				_, err := c.Call(tc.abort)
				var be *BudgetError
				if !errors.As(err, &be) || be.Resource != tc.resource {
					t.Fatalf("%s() = %v, want a %s budget error", tc.abort, err, tc.resource)
				}
				if c.running != nil {
					t.Fatal("the aborted invocation is still running")
				}
				return be
			}
			first := breach()
			for i := 0; i < 3; i++ {
				if _, err := c.Call(tc.normal, tc.arg); err != nil {
					t.Fatalf("%s() after a breach: %v", tc.normal, err)
				}
			}
			if tc.normal == "work" && c.LastInstructions() != workSteps {
				t.Errorf("work(12) after a breach took %d steps, want %d", c.LastInstructions(), workSteps)
			}
			if again := breach(); again.Used != first.Used {
				t.Errorf("second breach used %d, the first %d: a budget carried over", again.Used, first.Used)
			}
		})
	}
}

// Call keeps nothing of its args slice, even for a function that reads
// `arguments`, so a caller may clear the slice and reuse it for the next
// call.
func TestCallDoesNotRetainArgs(t *testing.T) {
	c := NewContext()
	if err := c.Load(`var kept = null; function f(m) { kept = arguments; } function get() { return kept; }`); err != nil {
		t.Fatal(err)
	}
	args := []Value{"first"}
	if _, err := c.Call("f", args...); err != nil {
		t.Fatal(err)
	}
	args[0] = "second"
	kept, _ := c.Call("get")
	if got := kept.(*Array).Elems[0]; got != "first" {
		t.Errorf("arguments[0] = %v after the caller reused its slice, want first", got)
	}
}
