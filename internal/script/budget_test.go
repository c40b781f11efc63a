package script

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
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

func TestBudgetUncatchableByScript(t *testing.T) {
	c := NewContext()
	c.SetLimits(Limits{Instructions: 1000})
	if err := c.Load(`
		var caught = false;
		function was_caught() { return caught; }
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
	if v, _ := c.Call("was_caught"); v == true {
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

// TestBudgetZeroLimitsKeepLegacyCeiling: a context with no Limits still
// stops a runaway loop, at DefaultMaxSteps and with the one error every
// instruction breach raises.
func TestBudgetZeroLimitsKeepLegacyCeiling(t *testing.T) {
	c := NewContext()
	if err := c.Load(`function event_received(m) { while (true) {} }`); err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err := c.Call("event_received", nil)
	var be *BudgetError
	if !errors.As(err, &be) || be.Resource != ResourceInstructions || be.Limit != DefaultMaxSteps {
		t.Fatalf("ungoverned context: err = %v, want an instruction BudgetError at DefaultMaxSteps", err)
	}
	if got := c.LastInstructions(); got != DefaultMaxSteps+1 {
		t.Fatalf("LastInstructions = %d, want DefaultMaxSteps+1", got)
	}
}

func TestBudgetErrorMessage(t *testing.T) {
	e := &BudgetError{Resource: ResourceMemory, Limit: 1024, Used: 2048}
	if got := e.Error(); got != "script: memory budget exceeded: used 2048 of 1024 bytes" {
		t.Fatalf("message = %q", got)
	}
	e2 := &BudgetError{Resource: ResourceInstructions, Limit: 20, Used: 21, Pos: Position{Line: 3, Col: 7}}
	if got := e2.Error(); got != "script: instructions budget exceeded at 3:7: used 21 of 20" {
		t.Fatalf("message = %q", got)
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
	if err := fresh.Load(`var counter = 0; function get() { return counter; }`); err != nil {
		t.Fatalf("load: %v", err)
	}
	if fresh.PreservationVersion() != 0 {
		t.Fatal("fresh context should be version 0")
	}
	// Restore itself is version-agnostic; the version policy lives in the
	// module runtime, which compares Snapshot.Version against the
	// destination's PreservationVersion before calling Restore.
	fresh.Restore(snap)
	if v, _ := fresh.Call("get"); v != float64(9) {
		t.Fatalf("restore skipped counter: %v", v)
	}
}

// builtinCharges pins what each builtin charges beyond its call's step, over
// inputs of n = 64 elements, fields or bytes (A, O, S, J), strings of 128
// bytes (W's items, K's keys) and a 256-byte needle L, whose comparisons
// each pay 1 + 256/cmpBlock = 5 steps. It names every builtin: the
// constant-time ones are pinned at 0, so a new builtin fails
// TestBudgetBuiltinPrices until its charge is pinned here.
var builtinCharges = []struct {
	call string
	want int64
}{
	{"num(S)", 64}, {"unshift(A, 1)", 64}, {"slice(A, 0, 3)", 64}, {"slice(S, 1)", 64},
	{"concat(A, A, [1, 2])", 130}, {"reverse(A)", 64}, {"range(64)", 64}, {"range(2.5)", 2},
	{"join(A, \",\")", 64}, {"upper(S)", 64}, {"lower(S)", 64}, {"trim(S)", 64},
	{"starts_with(S, \"z\")", 64}, {"ends_with(S, \"z\")", 64}, {"json_decode(J)", 64},
	// n·⌈log₂ n⌉ comparisons, of 1 + 128/64 steps each for W and K.
	{"sort(A)", 384}, {"keys(O)", 384}, {"values(O)", 384},
	{"sort(W)", 3 * 384}, {"keys(K)", 3 * 384}, {"values(K)", 3 * 384},
	// n comparisons with the needle.
	{"index_of(A, -1)", 64}, {"index_of(S, \"z\")", 64}, {"contains(A, -1)", 64},
	{"contains(S, \"z\")", 64}, {"split(S, \",\")", 64},
	{"index_of(A, L)", 5 * 64}, {"index_of(S, L)", 5 * 64}, {"contains(S, L)", 5 * 64}, {"split(S, L)", 5 * 64},
	// One lookup: free under cmpBlock bytes, like o[k].
	{"has(O, \"k100\")", 0}, {"remove(O, \"k\")", 0}, {"has(O, L)", 4}, {"remove(O, L)", 4},
	// Constant time, or cut off by the memory budget (str, json_encode).
	{"str(A)", 0}, {"json_encode(A)", 0}, {"len(A)", 0}, {"is_nan(1)", 0}, {"push(A, 1)", 0},
	{"pop(A)", 0}, {"shift(A)", 0}, {"substr(S, 1)", 0}, {"min(1, 2)", 0}, {"max(1, 2)", 0},
	{"abs(1)", 0}, {"floor(1)", 0}, {"ceil(1)", 0}, {"round(1)", 0}, {"sqrt(1)", 0},
	{"exp(1)", 0}, {"log(1)", 0}, {"sin(1)", 0}, {"cos(1)", 0}, {"atan2(1, 2)", 0}, {"pow(1, 2)", 0},
}

// TestBudgetBuiltinPrices: every builtin has its charge pinned in
// builtinCharges, at 0 if its work does not grow with its input.
func TestBudgetBuiltinPrices(t *testing.T) {
	pinned := map[string]bool{}
	for _, tc := range builtinCharges {
		pinned[tc.call[:strings.IndexByte(tc.call, '(')]] = true
	}
	for name := range builtins {
		if !pinned[name] {
			t.Errorf("%s has no charge pinned in builtinCharges", name)
		}
	}
	for name := range pinned {
		if builtins[name] == nil {
			t.Errorf("builtinCharges pins %s, which is not a builtin", name)
		}
	}
}

// loadGlobals declares each value as a global of c, loading its JSON text
// as the initialiser of a var.
func loadGlobals(c *Context, globals map[string]Value) error {
	for name, v := range globals {
		text, err := AppendJSON(nil, v)
		if err != nil {
			return err
		}
		if err := c.Load("var " + name + " = " + string(text) + ";"); err != nil {
			return err
		}
	}
	return nil
}

// TestBudgetBuiltinCharges runs builtinCharges: the steps of each call less
// those of the same call to is_nan, which is flat.
func TestBudgetBuiltinCharges(t *testing.T) {
	const n = 64
	steps := func(call string) int64 {
		c := NewContext()
		elems, fields := make([]Value, n), NewObject()
		words, wide := make([]Value, n), NewObject()
		for i := range elems {
			elems[i] = float64(i)
			fields.Set(fmt.Sprint("k", i+100), float64(i))
			words[i] = strings.Repeat("w", 125) + fmt.Sprint(i+100)
			wide.Set(words[i].(string), float64(i))
		}
		if err := loadGlobals(c, map[string]Value{
			"A": &Array{Elems: elems}, "O": fields, "W": &Array{Elems: words}, "K": wide,
			"S": strings.Repeat("ab,", n/4) + strings.Repeat("x", n-3*(n/4)),
			"J": "[" + strings.Repeat("1,", n/2-2) + "10]",
			"L": strings.Repeat("l", 4*cmpBlock),
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(call); err != nil {
			t.Fatalf("%s: %v", call, err)
		}
		return c.LastInstructions()
	}
	for _, tc := range builtinCharges {
		base := steps("is_nan" + tc.call[strings.IndexByte(tc.call, '('):])
		if got := steps(tc.call) - base; got != tc.want {
			t.Errorf("%s charged %d steps, want %d", tc.call, got, tc.want)
		}
	}
}

// TestBudgetStringReadsCharged: comparing two strings, and looking an object
// field up by a string key, pay one step per cmpBlock bytes of the shorter
// string or the key; for-of over an object pays what keys() does. Strings
// under cmpBlock bytes cost nothing extra.
func TestBudgetStringReadsCharged(t *testing.T) {
	long := strings.Repeat("s", 10*cmpBlock)
	cases := []struct {
		expr string
		want int64
	}{
		{"L == M", 10}, {"L != M", 10}, {"L < M", 10}, {"L >= M", 10}, {"L == \"short\"", 0},
		{"L == 1", 0}, {"L < X", 5}, {"O[L]", 10}, {"O[\"k\"]", 0},
		// Both sides of a compound write look the key up.
		{"O[L] = 1", 10}, {"O[L] += 1", 20},
		{"switch (L) { case M: case X: }", 15},
		// keys()'s 2·⌈log₂ 2⌉ comparisons, ten blocks more each for O's long keys.
		{"for (var k of O) {}", 20},
	}
	steps := func(expr string) int64 {
		c := NewContext()
		if err := loadGlobals(c, map[string]Value{
			"L": long, "M": long[:len(long)-1] + "t", "X": long[:5*cmpBlock],
			"O": FromGo(map[string]any{long: 0.0, long + "t": 0.0}),
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(expr); err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		return c.LastInstructions()
	}
	for _, tc := range cases {
		// The same expression over one-byte strings is the baseline.
		short := strings.NewReplacer("L", "Q", "M", "R", "X", "T").Replace(tc.expr)
		ctx := NewContext()
		if err := loadGlobals(ctx, map[string]Value{
			"Q": "q", "R": "r", "T": "t", "O": FromGo(map[string]any{"q": 0.0, "qt": 0.0}),
		}); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Load(short); err != nil {
			t.Fatalf("%s: %v", short, err)
		}
		if got := steps(tc.expr) - ctx.LastInstructions(); got != tc.want {
			t.Errorf("%s charged %d steps for its strings, want %d", tc.expr, got, tc.want)
		}
	}
}

// TestBudgetForOfStringInPlace: for-of walks a string's runes in place, so
// a loop that leaves at its first item builds one item, not one per rune,
// and pays the same steps over a 1 MiB string as over a one-rune string.
func TestBudgetForOfStringInPlace(t *testing.T) {
	run := func(s string) (steps int64, alloc uint64) {
		c := NewContext()
		if err := loadGlobals(c, map[string]Value{"S": s}); err != nil {
			t.Fatal(err)
		}
		if err := c.Load(`function f() { for (var c of S) { break; } }`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call("f"); err != nil { // warm the context's scratch
			t.Fatal(err)
		}
		// TotalAlloc is the process's: the least of three calls leaves out
		// what another goroutine allocated meanwhile.
		alloc = math.MaxUint64
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.Call("f"); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		return c.LastInstructions(), alloc
	}
	longSteps, alloc := run(strings.Repeat("s", 1<<20))
	shortSteps, _ := run("s")
	if alloc >= 1<<10 {
		t.Errorf("for-of leaving at the first rune of a 1 MiB string allocated %d bytes, want < 1 KiB", alloc)
	}
	if longSteps != shortSteps {
		t.Errorf("for-of leaving at the first rune: %d steps over 1 MiB, %d over one rune", longSteps, shortSteps)
	}
}

// TestBudgetBuiltinBoundExact: over literal and range(k) inputs pipecost's
// bound for a straight-line handler of priced builtins, string comparisons
// and keyed lookups is exactly what the interpreter charges.
func TestBudgetBuiltinBoundExact(t *testing.T) {
	for _, file := range []string{"ok_builtin_sized.js", "ok_string_reads.js"} {
		data, err := os.ReadFile(filepath.Join("testdata", "cost", file))
		if err != nil {
			t.Fatal(err)
		}
		var h HandlerCost
		for _, h = range Analyze(string(data), Options{}).Cost.Handlers {
			if h.Name == "event_received" {
				break
			}
		}
		if h.Name != "event_received" || !h.Bounded {
			t.Fatalf("%s: event_received: %+v, want a bound", file, h)
		}
		_, event, loaded := measureHandlers(string(data))
		if !loaded || event != h.Steps {
			t.Errorf("%s: measured %d steps (loaded %v), static bound %d: want them equal", file, event, loaded, h.Steps)
		}
	}
}

// Wall-time calibration for FuzzBudget. On a 2-core x86-64 box an
// interpreted step costs ~12 ns, a priced builtin ~1–90 ns per step it
// charges (join's per-element rendering is the dearest) and a string
// comparison ~2–6 ns per 64-byte block; the rendering builtins and string
// concatenation, which the memory budget bounds instead, cost ~15–25 ns per
// byte. The bound allows ten times the dearest of each, and two seconds for
// parsing, garbage collection and a busy box: it is a sanity bound on
// runaway work, while the breach checks below are exact.
const (
	fuzzNsPerStep = 1000
	fuzzNsPerByte = 250
	fuzzOverhead  = 2 * time.Second
)

// FuzzBudget runs random programs under random budgets: enforcement must
// never panic, a breached run must never exceed its instruction limit by
// more than one dispatch quantum, and no run may take longer than its steps
// and its memory budget pay for — there is no clock to stop it.
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
	// Two 256 KiB strings that differ in their last byte, compared in a loop.
	f.Add(`var a = "x"; for (var i = 0; i < 18; i++) { a = a + a; } var b = substr(a, 1) + "y";
function event_received(m) { while (true) { if (a == b || a > b) { return 1; } } }`, int64(1_000_000), int64(1<<22))
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
		c.SetLimits(Limits{Instructions: instr, Memory: mem})
		start := time.Now()
		var steps int64 // every invocation's, the Load's and the event's
		defer func() {
			slow := time.Duration(1)
			if raceEnabled {
				slow = 20
			}
			limit := slow * (time.Duration(steps)*fuzzNsPerStep + time.Duration(2*mem)*fuzzNsPerByte + fuzzOverhead)
			if took := time.Since(start); took > limit {
				t.Fatalf("ran %v in %d steps under a %d-byte memory budget, over the %v they allow", took, steps, mem, limit)
			}
		}()
		checkBreach := func(err error) {
			var be *BudgetError
			if !errors.As(err, &be) {
				return
			}
			if be.Resource == ResourceInstructions && c.LastInstructions() > instr+1 {
				t.Fatalf("instruction overshoot: ran %d with limit %d", c.LastInstructions(), instr)
			}
		}
		err := c.Load(src)
		steps += c.LastInstructions()
		if err != nil {
			checkBreach(err)
			return
		}
		if c.Has("event_received") {
			_, err := c.Call("event_received", FromGo(map[string]any{"kind": "fuzz"}))
			steps += c.LastInstructions()
			checkBreach(err)
		}
		c.Snapshot()
	})
}
