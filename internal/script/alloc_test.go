package script

import (
	"fmt"
	"testing"
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

// TestScriptLoopAllocs pins one event of the burn-stage handler: what it
// allocates is the invocation, the outgoing message and the host call — the
// same at 400 iterations as at 4000.
func TestScriptLoopAllocs(t *testing.T) {
	perEvent := func(iters int) float64 {
		c := NewContext()
		var sent Value
		c.Bind("call_module", func(args []Value) (Value, error) {
			sent = args[1]
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
		if got := sent.(*Object).Get("acc"); got != want {
			t.Fatalf("acc after %d iterations = %v, want %v", iters, got, want)
		}
		return allocs
	}
	short, long := perEvent(400), perEvent(4000)
	assertAllocs(t, "burn-stage event, 4000 iterations", long, 24)
	if !raceEnabled && short != long {
		t.Errorf("allocs/event depend on the iteration count: %.1f at 400, %.1f at 4000", short, long)
	}
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
