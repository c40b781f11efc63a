package script

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// doubled is a = [0]; a = [a, a] n times: 2n+1 allocations whose tree has
// 2^n leaves.
func doubled(n int) Value {
	v := Value(&Array{Elems: []Value{0.0}})
	for i := 0; i < n; i++ {
		v = &Array{Elems: []Value{v, v}}
	}
	return v
}

// Every bounded walker stops at its bound on a value whose rendering is
// exponential in its size: in time and memory proportional to the bound,
// whether the full tree would have 4 million leaves or 10^18.
func TestBoundedWalksStopAtTheBound(t *testing.T) {
	for _, n := range []int{22, 60} {
		v := doubled(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()

		if size, err := PayloadSize(v, 256<<10); err != nil || size <= 256<<10 || size > 257<<10 {
			t.Errorf("%d doublings: PayloadSize = %d, %v; want just over the 256 KiB bound", n, size, err)
		}
		if _, err := StringifyMax(v, 256<<10); err != ErrTooLong {
			t.Errorf("%d doublings: StringifyMax err = %v, want ErrTooLong", n, err)
		}
		enc := JSONEncoder{over: 1 << 20}
		if out, err := enc.value(nil, v, 0, ""); err != ErrTooLong || len(out) > 1<<20+16 {
			t.Errorf("%d doublings: bounded encode = %d bytes, %v; want ErrTooLong at 1 MiB", n, len(out), err)
		}

		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
			t.Errorf("%d doublings: walks allocated %d KiB, want under 4 MiB", n, alloc>>10)
		}
		if elapsed > 2*time.Second {
			t.Errorf("%d doublings: walks took %v", n, elapsed)
		}
	}
	// Unbounded, a small DAG still renders in full.
	if s, err := Stringify(doubled(3)); err != nil || strings.Count(s, "0") != 8 {
		t.Errorf("Stringify(doubled(3)) = %q, %v", s, err)
	}
}

// With a memory budget on, str, string concatenation, join and json_encode
// breach at the budget instead of first building what they were asked for;
// with it off they behave as ever.
func TestBudgetBoundsRenderingBuiltins(t *testing.T) {
	const build = `var a = [0]; for (var i = 0; i < %d; i++) { a = [a, a]; }`
	for _, call := range []string{`str(a)`, `"" + a`, `a + ""`, `join([1, a], ",")`, `json_encode(a)`, `var o = {}; o[a]`} {
		for _, n := range []int{22, 60} {
			c := NewContext()
			c.SetLimits(Limits{Instructions: 50000, Memory: 1 << 20})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.Load(fmt.Sprintf(build, n) + call)
			runtime.ReadMemStats(&after)
			var be *BudgetError
			if !errors.As(err, &be) || be.Resource != ResourceMemory || be.Used <= be.Limit {
				t.Errorf("%s at %d doublings: err = %v, want a memory BudgetError", call, n, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
				t.Errorf("%s at %d doublings: host allocated %d KiB, want under 4 MiB", call, n, alloc>>10)
			}
		}
		c := NewContext()
		v, err := evalIn(c, fmt.Sprintf(build, 4)+call)
		if err != nil {
			t.Errorf("%s unlimited: %v", call, err)
		}
		if s, ok := v.(string); ok && strings.Count(s, "0") != 16 {
			t.Errorf("%s unlimited = %q, want all 16 leaves", call, s)
		}
	}
	// A rendering that fits is untouched by the bound, to the byte.
	c := NewContext()
	c.SetLimits(Limits{Memory: 4096})
	if v, err := evalIn(c, `str([1, {b: "x"}]) + json_encode({k: [1.5, null]}) + join(["a", [2]], "-")`); err != nil || v != `[1, {b: x}]{"k":[1.5,null]}a-[2]` {
		t.Errorf("within budget: %v, %v", v, err)
	}
}

func TestCloneIsDeepBoundedAndDropsFunctions(t *testing.T) {
	c := NewContext()
	v, err := evalIn(c, `({frame_ref: 9, pose: {kps: [{x: 1}, {x: 2}]}, fn: function () {}, list: [function () {}, "s"]})`)
	if err != nil {
		t.Fatal(err)
	}
	src := v.(*Object)
	cloned, err := Clone(src)
	if err != nil {
		t.Fatal(err)
	}
	cp := cloned.(*Object)
	want, _ := AppendJSON(nil, src)
	got, _ := AppendJSON(nil, cp)
	if string(got) != string(want) {
		t.Errorf("Clone:\n got %s\nwant %s", got, want)
	}
	if fn, kept := cp.Lookup("fn"); !kept || fn != nil {
		t.Errorf("function field cloned as %v, want a null field", fn)
	}
	// No array or object is shared: mutate every level of the original.
	src.Get("pose").(*Object).Get("kps").(*Array).Elems[0].(*Object).Set("x", 100.0)
	src.Get("pose").(*Object).Get("kps").(*Array).Elems = nil
	src.Get("list").(*Array).Elems[1] = "changed"
	if after, _ := AppendJSON(nil, cp); string(after) != string(want) {
		t.Errorf("clone changed with its source:\n got %s\nwant %s", after, want)
	}

	deep := Value(1.0)
	for i := 0; i < MaxDepth; i++ {
		deep = &Array{Elems: []Value{deep}}
	}
	if _, err := Clone(deep); err != nil {
		t.Errorf("Clone at MaxDepth: %v", err)
	}
	if _, err := Clone(&Array{Elems: []Value{deep}}); err != errTooDeep {
		t.Errorf("Clone one past MaxDepth: %v, want the depth error", err)
	}
	self := &Array{}
	self.Elems = append(self.Elems, self)
	if _, err := Clone(self); err != errTooDeep {
		t.Errorf("Clone of a self-containing array: %v", err)
	}
	if _, err := PayloadSize(self, -1); err != errTooDeep {
		t.Errorf("PayloadSize of a self-containing array: %v", err)
	}
	if _, err := AppendJSON(nil, self); err != errTooDeep {
		t.Errorf("AppendJSON of a self-containing array: %v", err)
	}
}

// TestHostArgCheckAllocs pins the per-call argument validation of the two
// host calls on every frame's path at zero allocations.
func TestHostArgCheckAllocs(t *testing.T) {
	service := []Value{"pose_detector", NewObject()}
	metric := []Value{"pose", 12.5}
	for name, args := range map[string][]Value{"call_service": service, "call_module": service, "metric": metric} {
		got := testing.AllocsPerRun(100, func() {
			if err := CheckHostArgs(name, args); err != nil {
				t.Fatal(err)
			}
		})
		assertAllocs(t, "CheckHostArgs("+name+")", got, 0)
	}
	if err := CheckHostArgs("call_service", []Value{"svc", "not an object"}); err == nil {
		t.Error("a string message passed the object check")
	}
	if !typeAllowed("array|string", "string") || typeAllowed("array|string", "str") || typeAllowed("", "string") || !typeAllowed("number|any", "object") {
		t.Error("typeAllowed disagrees with its spec grammar")
	}
}
