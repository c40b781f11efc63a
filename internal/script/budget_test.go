package script

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestBudgetInstructionBreach(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Instructions: 1000})
	if err := c.Load(`function event_received(m) { while (true) {} }`); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err := c.Call("event_received", nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.Resource != ResourceInstructions {
		t.Fatalf("resource = %q, want instructions", be.Resource)
	}
	if be.Limit != 1000 {
		t.Fatalf("limit = %d, want 1000", be.Limit)
	}
	// Overshoot is bounded by one dispatch quantum: the breach is raised on
	// the first step past the limit.
	if got := c.LastInstructions(); got != 1001 {
		t.Fatalf("LastInstructions = %d, want limit+1 = 1001", got)
	}
}

func TestBudgetInitVersusEventBudget(t *testing.T) {
	// init() runs under InitInstructions, events under Instructions.
	c := NewContext()
	c.SetLimits(Limits{Instructions: 100_000, InitInstructions: 200})
	src := `
		function spin(n) { var i = 0; while (i < n) { i = i + 1; } return i; }
		function init() { spin(1000); }
		function event_received(m) { spin(1000); }
	`
	if err := c.Load(src); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Call("init"); err == nil {
		t.Fatal("init should breach the 200-step init budget")
	}
	if _, err := c.Call("event_received", nil); err != nil {
		t.Fatalf("event should fit the 100k event budget: %v", err)
	}
}

func TestBudgetInitFallsBackToInstructions(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Instructions: 200})
	// Top-level load shares the init phase; with no InitInstructions the
	// event budget applies.
	err := c.Load(`var i = 0; while (i < 1000) { i = i + 1; }`)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != ResourceInstructions {
		t.Fatalf("want instruction BudgetError from load, got %v", err)
	}
}

func TestBudgetMemoryBreach(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Memory: 64 * 1024})
	if err := c.Load(`
		function event_received(m) {
			var s = "0123456789abcdef";
			while (true) { s = s + s; }
		}
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err := c.Call("event_received", nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.Resource != ResourceMemory {
		t.Fatalf("resource = %q, want memory", be.Resource)
	}
	// Doubling means the final charge is at most the limit itself, so
	// total accounted use stays under 2x the limit.
	if be.Used > 2*be.Limit {
		t.Fatalf("used %d overshoots limit %d by more than one allocation", be.Used, be.Limit)
	}
}

func TestBudgetMemoryResetsPerInvocation(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Memory: 16 * 1024})
	if err := c.Load(`
		function event_received(m) {
			var a = [];
			var i = 0;
			while (i < 100) { push(a, "xxxxxxxx"); i = i + 1; }
			return len(a);
		}
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	// Each event allocates ~a few KiB; the budget is per invocation, so
	// many sequential events must all pass.
	for i := 0; i < 50; i++ {
		if _, err := c.Call("event_received", nil); err != nil {
			t.Fatalf("event %d breached a per-invocation budget: %v", i, err)
		}
	}
}

func TestBudgetTimeoutBreach(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Timeout: 20 * time.Millisecond})
	if err := c.Load(`function event_received(m) { while (true) {} }`); err != nil {
		t.Fatalf("load: %v", err)
	}
	start := time.Now()
	_, err := c.Call("event_received", nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want BudgetError, got %v", err)
	}
	if be.Resource != ResourceTimeout {
		t.Fatalf("resource = %q, want timeout", be.Resource)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout enforcement took %v", elapsed)
	}
}

func TestBudgetTimeoutExcludesHostTime(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Timeout: 50 * time.Millisecond})
	c.Bind("slow_host", func(args []Value) (Value, error) {
		time.Sleep(120 * time.Millisecond)
		return nil, nil
	})
	if err := c.Load(`function event_received(m) { slow_host(); return "ok"; }`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := c.Call("event_received", nil); err != nil {
		t.Fatalf("host-call time must not count against the script timeout: %v", err)
	}
}

func TestBudgetUncatchableByScript(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Instructions: 1000})
	if err := c.Load(`
		var caught = false;
		function event_received(m) {
			try { while (true) {} } catch (e) { caught = true; }
			return "survived";
		}
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err := c.Call("event_received", nil)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("try/catch must not swallow a budget breach, got %v", err)
	}
	if v, _ := c.Global("caught"); v == true {
		t.Fatal("catch block ran on a budget breach")
	}
}

func TestBudgetHostErrorUncatchable(t *testing.T) {
	// A *BudgetError returned by a host function (the module runtime's
	// output limit) must pass through try/catch untouched.
	c := NewContext()
	c.Bind("emit", func(args []Value) (Value, error) {
		return nil, &BudgetError{Resource: ResourceOutput, Limit: 10, Used: 99}
	})
	if err := c.Load(`
		function event_received(m) {
			try { emit("x"); } catch (e) { return "caught"; }
			return "no error";
		}
	`); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err := c.Call("event_received", nil)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != ResourceOutput {
		t.Fatalf("want output BudgetError through try/catch, got %v", err)
	}
}

func TestBudgetZeroLimitsKeepLegacyCeiling(t *testing.T) {
	c := NewContext()
	c.SetMaxSteps(5000)
	if err := c.Load(`function event_received(m) { while (true) {} }`); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err := c.Call("event_received", nil)
	if err == nil {
		t.Fatal("want step-budget error")
	}
	var be *BudgetError
	if errors.As(err, &be) {
		t.Fatalf("ungoverned context must raise the legacy RuntimeError, got BudgetError %v", err)
	}
	if !strings.Contains(err.Error(), "step budget exhausted") {
		t.Fatalf("legacy ceiling message changed: %v", err)
	}
}

func TestBudgetErrorMessage(t *testing.T) {
	e := &BudgetError{Resource: ResourceMemory, Limit: 1024, Used: 2048}
	if got := e.Error(); got != "script: memory budget exceeded: used 2048 of 1024 bytes" {
		t.Fatalf("message = %q", got)
	}
	e2 := &BudgetError{Resource: ResourceTimeout, Limit: 20, Used: 25, Pos: Position{Line: 3, Col: 7}}
	if !strings.Contains(e2.Error(), "timeout budget exceeded at") || !strings.Contains(e2.Error(), " ms") {
		t.Fatalf("message = %q", e2.Error())
	}
}

func TestPreservationVersion(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{``, 0},
		{`var _PRESERVATION_VERSION = 3;`, 3},
		{`const _PRESERVATION_VERSION = 7;`, 7},
		{`var _PRESERVATION_VERSION = "not a number";`, 0},
	}
	for _, tc := range cases {
		c := NewContext()
		if err := c.Load(tc.src); err != nil {
			t.Fatalf("load %q: %v", tc.src, err)
		}
		if got := c.PreservationVersion(); got != tc.want {
			t.Errorf("PreservationVersion(%q) = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestSnapshotCarriesVersion(t *testing.T) {
	c := NewContext()
	if err := c.Load(`const _PRESERVATION_VERSION = 4; var counter = 9;`); err != nil {
		t.Fatalf("load: %v", err)
	}
	snap := c.Snapshot()
	if snap.Version() != 4 {
		t.Fatalf("snapshot version = %d, want 4 (const declarations count)", snap.Version())
	}
	if (*Snapshot)(nil).Version() != 0 {
		t.Fatal("nil snapshot version must be 0")
	}
	fresh := NewContext()
	if err := fresh.Load(`var counter = 0;`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if fresh.PreservationVersion() != 0 {
		t.Fatal("fresh context should be version 0")
	}
	// Restore itself is version-agnostic; the version policy lives in the
	// module runtime, which compares Snapshot.Version against the
	// destination's PreservationVersion before calling Restore.
	fresh.Restore(snap)
	if v, _ := fresh.Global("counter"); v != float64(9) {
		t.Fatalf("restore skipped counter: %v", v)
	}
}

// FuzzBudget runs random programs under random budgets: enforcement must
// never panic, and a breached run must never exceed its instruction limit
// by more than one dispatch quantum.
func FuzzBudget(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed, int64(1000), int64(4096))
	}
	f.Add(`function event_received(m) { while (true) {} }`, int64(50), int64(128))
	f.Add(`var s = "x"; function event_received(m) { while (true) { s = s + s; } }`, int64(100000), int64(64))
	// A value that contains itself, pushed through every walker that
	// recurses over values (str, concat, json_encode; Snapshot below).
	f.Add(`var a = []; push(a, a); function event_received(m) { try { str(a); } catch (e) {} try { json_encode({v: a}); } catch (e) {} return "" + a; }`, int64(100000), int64(1<<20))
	// A value whose tree is exponentially larger than it is (a = [a, a],
	// twenty-two times: 4 million leaves in 45 allocations), pushed through
	// the same walkers: each must stop at the budget, not after the output.
	f.Add(`function event_received(m) { var a = [0]; for (var i = 0; i < 22; i++) { a = [a, a]; } try { str(a); } catch (e) {} try { json_encode(a); } catch (e) {} try { join([a], ""); } catch (e) {} return "" + a; }`, int64(50000), int64(1<<20))
	f.Fuzz(func(t *testing.T, src string, instr, mem int64) {
		if instr <= 0 {
			instr = 1
		}
		if instr > 1_000_000 {
			instr = 1_000_000
		}
		if mem <= 0 {
			mem = 1
		}
		if mem > 1<<22 {
			mem = 1 << 22
		}
		c := NewContext()
		c.SetLimits(Limits{Instructions: instr, Memory: mem, Timeout: 250 * time.Millisecond})
		checkBreach := func(err error) {
			var be *BudgetError
			if !errors.As(err, &be) {
				return
			}
			if be.Resource == ResourceInstructions && c.LastInstructions() > instr+1 {
				t.Fatalf("instruction overshoot: ran %d with limit %d", c.LastInstructions(), instr)
			}
		}
		if err := c.Load(src); err != nil {
			checkBreach(err)
			return
		}
		if c.Has("event_received") {
			_, err := c.Call("event_received", FromGo(map[string]any{"kind": "fuzz"}))
			checkBreach(err)
		}
		c.Snapshot()
	})
}
