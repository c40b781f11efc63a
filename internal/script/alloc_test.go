package script

import (
	"fmt"
	"testing"
	"unique"
)

// The interpreter's allocation pins: a counted loop and a script-to-script
// call run on unboxed cells and recycled frames, so their cost in mallocs is
// a small constant, not a multiple of the work done. `make alloc` enforces
// them.

func assertAllocs(t *testing.T, what string, got, want float64) {
	t.Helper()
	if raceEnabled {
		t.Logf("%s: %.1f allocs/op (bound %0.f not enforced under -race)", what, got, want)
		return
	}
	if got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", what, got, want)
	}
}

// burnStageSrc is the scripted flood mix's stage handler
// (experiments.scriptedStageSrc) with the iteration count left open.
const burnStageSrc = `
	function event_received(message) {
		var acc = 0;
		for (var i = 0; i < %d; i++) {
			acc = acc + i * 3;
		}
		call_module("burn_b", {frame_ref: message.frame_ref, acc: acc});
	}
`

var accKey = unique.Make("acc")

// TestScriptLoopAllocs pins one event of the burn-stage handler: what it
// allocates is Call's variadic argument slice alone, the same at 400
// iterations as at 4000 (the host call's arguments are lent, its message
// literal is the site's scratch, and the invocation state is the
// context's).
func TestScriptLoopAllocs(t *testing.T) {
	perEvent := func(iters int) float64 {
		c := NewContext()
		var acc float64
		c.Bind("call_module", func(args []Value) (Value, error) {
			acc, _ = args[1].(*Object).Num(accKey) // the message is lent for the call only
			return nil, nil
		})
		if err := c.Load(fmt.Sprintf(burnStageSrc, iters)); err != nil {
			t.Fatal(err)
		}
		msg := FromGo(map[string]any{"frame_ref": 1.0})
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := c.Call("event_received", msg); err != nil {
				t.Fatal(err)
			}
		})
		want := 3 * float64(iters) * float64(iters-1) / 2
		if acc != want {
			t.Fatalf("acc after %d iterations = %v, want %v", iters, acc, want)
		}
		return allocs
	}
	short, long := perEvent(400), perEvent(4000)
	t.Logf("burn-stage event: %.1f allocs at 400 iterations, %.1f at 4000", short, long)
	assertAllocs(t, "burn-stage event, 4000 iterations", long, 1)
	if !raceEnabled && short != long {
		t.Errorf("allocs/event depend on the iteration count: %.1f at 400, %.1f at 4000", short, long)
	}
}

// TestContextCallAllocs pins a warm one-argument Call made from a slice the
// caller holds, as a module worker makes event_received's: the outermost
// invocation reuses the context's own state and Call keeps nothing of its
// arguments, so the call allocates nothing.
func TestContextCallAllocs(t *testing.T) {
	c := NewContext()
	if err := c.Load(`function event_received(message) { var n = 1; return message; }`); err != nil {
		t.Fatal(err)
	}
	args := []Value{NewObject()}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Call("event_received", args...); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "warm one-argument Call", allocs, 0)
}

// TestScriptCallFrameAllocs pins a script-to-script call: arguments are
// evaluated into the callee's recycled frame and the result returns unboxed,
// so a loop of calls costs no more than a loop without them.
func TestScriptCallFrameAllocs(t *testing.T) {
	const src = `
		function mix(a, b) { var t = a * 2; return t + b; }
		function run(n) {
			var acc = 0;
			for (var i = 0; i < n; i++) { acc = mix(acc, i); }
			return acc;
		}
	`
	perRun := func(calls int) float64 {
		c := NewContext()
		if err := c.Load(src); err != nil {
			t.Fatal(err)
		}
		n := Value(float64(calls))
		return testing.AllocsPerRun(50, func() {
			if _, err := c.Call("run", n); err != nil {
				t.Fatal(err)
			}
		})
	}
	const calls = 100
	perCall := (perRun(calls+1) - perRun(1)) / calls
	assertAllocs(t, "two-parameter script call, frame uncaptured", perCall, 1)
}

// TestObjectLiteralAllocs pins a flat object: a literal of up to eight
// fields — the object and its field table — is one allocation, whatever
// the field count (a map-backed object paid one per bucket, and more per
// field).
func TestObjectLiteralAllocs(t *testing.T) {
	perCall := func(body string) float64 {
		c := NewContext()
		if err := c.Load(`function f(a) { ` + body + ` return a; }`); err != nil {
			t.Fatal(err)
		}
		a := Value(1.5)
		return testing.AllocsPerRun(50, func() {
			if _, err := c.Call("f", a); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := perCall("")
	for _, lit := range []string{`{}`, `{k: a}`, `{a: a, b: "x", c: 2}`, `{a: a, b: "x", c: 2, d: true, e: null, f: a, g: 3, h: "y"}`} {
		assertAllocs(t, "object literal "+lit, perCall("var o = "+lit+";")-bare, 1)
	}
}

// TestHostCallArgsAllocs pins a bound two-argument host call at zero
// allocations for its arguments: they are lent from the context's argument
// stack, not collected into a fresh slice per call.
func TestHostCallArgsAllocs(t *testing.T) {
	const src = `
		function run(n, msg) {
			for (var i = 0; i < n; i++) { sink("pose", msg); }
		}
	`
	perRun := func(calls int) float64 {
		c := NewContext()
		c.Bind("sink", func(args []Value) (Value, error) { return nil, nil })
		if err := c.Load(src); err != nil {
			t.Fatal(err)
		}
		n, msg := Value(float64(calls)), Value(NewObject())
		return testing.AllocsPerRun(50, func() {
			if _, err := c.Call("run", n, msg); err != nil {
				t.Fatal(err)
			}
		})
	}
	const calls = 100
	perCall := (perRun(calls+1) - perRun(1)) / calls
	assertAllocs(t, "two-argument host call", perCall, 0)
}

// TestJSONDecoderAllocs pins a warm JSONDecoder scan of the fitness
// rep_counter stage's message to display at its containers: its keys and
// keypoint names come from the intern table and its numbers go into their
// fields unboxed, so the count is the objects and the arrays, and no string
// and no number.
func TestJSONDecoderAllocs(t *testing.T) {
	body := []byte(fitnessBody(1))
	dec := NewJSONDecoder()
	v, err := dec.DecodeFields(body)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := dec.DecodeFields(body); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(50, func() {
		if _, err := new(JSONDecoder).DecodeFields(body); err != nil {
			t.Fatal(err)
		}
	})
	want := valueAllocs(v)
	t.Logf("rep_counter message: %.0f allocs warm, %.0f through a fresh decoder, %.0f objects and arrays, %d numbers", got, cold, want, fieldNumbers(v))
	if want != 7 || fieldNumbers(v) < 40 {
		t.Fatalf("the message is %.0f allocations of containers and %d field numbers, want 7 and at least 40", want, fieldNumbers(v))
	}
	assertAllocs(t, "warm JSONDecoder scan of the rep_counter message", got, want)
}

// valueAllocs is what a scanned value is made of: one allocation per object
// of up to eight fields, two per non-empty array (header and elements), two
// together for an array's object elements (their record run), and one per
// array element that is a number other than zero, which Go boxes for free. A
// number in a field costs nothing.
func valueAllocs(v Value) float64 {
	switch x := v.(type) {
	case *Object:
		return 1 + fieldAllocs(x)
	case *Array:
		n, run := 2.0, 0.0
		for _, e := range x.Elems {
			if o, ok := e.(*Object); ok {
				n, run = n+fieldAllocs(o), 2
			} else {
				n += valueAllocs(e)
			}
		}
		return n + run
	case float64:
		if x != 0 {
			return 1
		}
	}
	return 0
}

// fieldAllocs is what an object's field values are made of.
func fieldAllocs(o *Object) float64 {
	n := 0.0
	for i := range o.fields {
		if !o.fields[i].isNum() {
			n += valueAllocs(o.fields[i].ref)
		}
	}
	return n
}

// fieldNumbers counts the numbers v holds in object fields.
func fieldNumbers(v Value) int {
	n := 0
	switch x := v.(type) {
	case *Object:
		for i := range x.fields {
			if x.fields[i].isNum() {
				n++
			} else {
				n += fieldNumbers(x.fields[i].ref)
			}
		}
	case *Array:
		for _, e := range x.Elems {
			n += fieldNumbers(e)
		}
	}
	return n
}

// TestShiftWindowAllocs pins activity_recognition's sliding window: push
// then shift on a 15-wide window. shift reslices instead of copying the
// array, so it allocates nothing, and push allocates only when it outgrows
// the backing array's spare room — under one allocation per cycle,
// amortised. What a warm cycle does allocate is the two numbers len and push
// return, boxed (a copying shift cost two more). The window keeps its values
// and snapshots as before.
func TestShiftWindowAllocs(t *testing.T) {
	c := NewContext()
	if err := c.Load(`
		var window = [];
		function event_received(pose) {
			push(window, pose.seq);
			if (len(window) > 15) { shift(window); }
		}
	`); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 40; seq++ {
		if _, err := c.Call("event_received", FromGo(map[string]any{"seq": seq})); err != nil {
			t.Fatal(err)
		}
	}
	want := "window=[26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40]\n"
	if got := c.Snapshot().String(); got != want {
		t.Errorf("snapshot = %q, want %q", got, want)
	}
	args := []Value{FromGo(map[string]any{"seq": "pose"})}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Call("event_received", args...); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "warm push/shift cycle on a 15-wide window", allocs, 2)
}
