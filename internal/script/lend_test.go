package script

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// An object literal passed straight as the message of call_module or
// call_service (Signature.Lends) is evaluated into its site's scratch
// object, which the call borrows and the site empties after it. These tests
// pin when the scratch is reused and when the site allocates as it used to:
// its scratch is still lent (recursion, a host calling back in) or the call
// handed it back.

// freshSuffix rebinds both host names in a function never called: the
// module then writes those globals, so the resolver lends no literal and
// every call site allocates its message, as before lending.
const freshSuffix = "\nfunction never_called() { call_module = call_module; call_service = call_service; }\n"

// lendRecorder binds call_module and call_service to stubs that render the
// message they are lent and note its identity. call_service returns what
// reply makes of its arguments.
type lendRecorder struct {
	sent  []string
	objs  []*Object
	reply func(args []Value) Value
}

func (r *lendRecorder) bind(c *Context) {
	record := func(args []Value) {
		msg, _ := args[1].(*Object)
		s, err := Stringify(args[1])
		if err != nil {
			s = "<" + err.Error() + ">"
		}
		r.sent, r.objs = append(r.sent, s), append(r.objs, msg)
	}
	c.Bind("call_module", func(args []Value) (Value, error) {
		record(args)
		return nil, nil
	})
	c.Bind("call_service", func(args []Value) (Value, error) {
		record(args)
		if r.reply != nil {
			return r.reply(args), nil
		}
		return "ok", nil
	})
}

// lendPair loads src twice, once as it is and once with freshSuffix, runs
// the named calls on both and fails unless both sent the same messages and
// returned the same results with the same step counts. It returns the
// recorder of the lending context.
func lendPair(t *testing.T, src string, reply func(args []Value) Value, calls ...[]Value) *lendRecorder {
	t.Helper()
	var recs [2]*lendRecorder
	var results [2][]string
	for i, s := range []string{src, src + freshSuffix} {
		c := NewContext()
		c.SetLimits(Limits{Instructions: 100_000, Memory: 1 << 20})
		recs[i] = &lendRecorder{reply: reply}
		recs[i].bind(c)
		if err := c.Load(s); err != nil {
			t.Fatal(err)
		}
		for _, call := range calls {
			v, err := c.Call(call[0].(string), call[1:]...)
			out, _ := Stringify(v)
			if err != nil {
				out = "error: " + err.Error()
			}
			results[i] = append(results[i], fmt.Sprintf("%s in %d steps", out, c.LastInstructions()))
		}
	}
	if a, b := strings.Join(results[0], "\n"), strings.Join(results[1], "\n"); a != b {
		t.Errorf("lent literal returned\n%s\nfresh literal returned\n%s", a, b)
	}
	if a, b := strings.Join(recs[0].sent, "\n"), strings.Join(recs[1].sent, "\n"); a != b {
		t.Errorf("lent literal sent\n%s\nfresh literal sent\n%s", a, b)
	}
	return recs[0]
}

// distinct counts the distinct objects in objs.
func distinct(objs []*Object) int {
	seen := map[*Object]bool{}
	for _, o := range objs {
		seen[o] = true
	}
	return len(seen)
}

func TestLendReusesOneScratchPerSite(t *testing.T) {
	src := `function send(n) {
	call_module("a", {n: n, tag: "x"});
	call_module("b", {n: n + 1});
}`
	rec := lendPair(t, src, nil, []Value{"send", 1.0}, []Value{"send", 2.0}, []Value{"send", 3.0})
	if got := distinct(rec.objs); got != 2 {
		t.Errorf("six sends from two sites lent %d objects, want 2", got)
	}
	for _, o := range rec.objs {
		if o.Len() != 0 || o.index != nil {
			t.Errorf("a scratch holds %d fields after its call", o.Len())
		}
	}

	// A call through another name, or from a module that rebinds the host
	// name, allocates its message as before.
	for _, src := range []string{
		`function send(n) { var f = call_module; f("a", {n: n}); }`,
		`function send(n) { call_module("a", {n: n}); }` + freshSuffix,
	} {
		c := NewContext()
		rec := &lendRecorder{}
		rec.bind(c)
		if err := c.Load(src); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := c.Call("send", float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := distinct(rec.objs); got != 3 {
			t.Errorf("%s: three sends passed %d objects, want 3", src, got)
		}
	}
}

// A field whose evaluation reaches the same site again gets a new object
// there: the outer call's scratch is still being filled.
func TestLendRecursionIntoSameSite(t *testing.T) {
	src := `function f(n) {
	return call_service("s", {n: n, inner: n > 0 ? f(n - 1) : null});
}`
	reply := func(args []Value) Value { s, _ := Stringify(args[1]); return s }
	rec := lendPair(t, src, reply, []Value{"f", 3.0}, []Value{"f", 2.0})
	// The scratch goes to the outermost call of each: the nested calls
	// (three in f(3), two in f(2)) evaluate while it is busy and allocate.
	if got := distinct(rec.objs); got != 6 {
		t.Errorf("seven calls lent %d objects, want the scratch and five new ones", got)
	}
	if rec.objs[3] != rec.objs[6] {
		t.Error("the outermost call of f(2) did not reuse the site's scratch")
	}
}

// A throw or a budget abort inside a field leaves the scratch empty, and the
// next call reuses it with only its own fields.
func TestLendScratchEmptiedOnThrowAndAbort(t *testing.T) {
	src := `function boom() { throw "boom"; }
function spin() { while (true) {} }
function send(how) {
	call_module("a", {a: 1, b: how == "throw" ? boom() : (how == "spin" ? spin() : 2), c: 3});
}
function caught() {
	try { send("throw"); } catch (e) { return e; }
}`
	c := NewContext()
	c.SetLimits(Limits{Instructions: 10_000})
	rec := &lendRecorder{}
	rec.bind(c)
	if err := c.Load(src); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("send", "ok"); err != nil {
		t.Fatal(err)
	}
	scratch := rec.objs[0]
	for _, how := range []string{"throw", "spin", "caught"} {
		var err error
		if how == "caught" {
			_, err = c.Call("caught")
		} else {
			_, err = c.Call("send", how)
		}
		var be *BudgetError
		switch {
		case how == "throw" && err == nil, how == "spin" && !errors.As(err, &be), how == "caught" && err != nil:
			t.Fatalf("%s: err = %v", how, err)
		}
		if scratch.Len() != 0 {
			t.Errorf("after %s the scratch holds %d fields", how, scratch.Len())
		}
		if _, err := c.Call("send", "ok"); err != nil {
			t.Fatal(err)
		}
		if last := len(rec.objs) - 1; rec.objs[last] != scratch || rec.sent[last] != "{a: 1, b: 2, c: 3}" {
			t.Errorf("after %s the next call sent %s from a new object %v", how, rec.sent[last], rec.objs[last] != scratch)
		}
	}
}

// A host call that hands the literal back — as its result, in a field of
// it or deeper — keeps it: what the script holds never changes, and the
// site lends a new scratch next time.
func TestLendHandedBackIsKept(t *testing.T) {
	src := `function get(n) { return call_service("s", {n: n}); }
function two() {
	var r1 = get(1);
	var r2 = get(2);
	var r3 = get(3);
	return [r1, r2, r3];
}`
	for name, reply := range map[string]func(args []Value) Value{
		"result": func(args []Value) Value { return args[1] },
		"field":  func(args []Value) Value { o := NewObject(); o.Set("echo", args[1]); return o },
		"deeper": func(args []Value) Value {
			o := NewObject()
			o.Set("list", &Array{Elems: []Value{1.0, args[1]}})
			return o
		},
		"not kept": func(args []Value) Value { o := NewObject(); o.Set("n", args[1].(*Object).Get("n")); return o },
	} {
		t.Run(name, func(t *testing.T) {
			rec := lendPair(t, src, reply, []Value{"two"}, []Value{"two"})
			want := 6
			if name == "not kept" {
				want = 1
			}
			if got := distinct(rec.objs); got != want {
				t.Errorf("six calls lent %d objects, want %d", got, want)
			}
		})
	}
}

// A host call that calls back into the context reaches the site whose
// scratch it holds: the inner call gets a new object, and the outer one's
// message is unchanged when the inner call returns.
func TestLendReentrantCall(t *testing.T) {
	c := NewContext()
	var seen []string
	depth := 0
	c.Bind("call_module", func(args []Value) (Value, error) {
		msg := args[1].(*Object)
		before, _ := Stringify(msg)
		if depth == 0 {
			depth++
			if _, err := c.Call("send", 2.0); err != nil {
				return nil, err
			}
			depth--
		}
		after, _ := Stringify(msg)
		if after != before {
			t.Errorf("the inner call changed the outer message from %s to %s", before, after)
		}
		seen = append(seen, after)
		return nil, nil
	})
	if err := c.Load(`function send(n) { call_module("a", {n: n}); }`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("send", 1.0); err != nil {
		t.Fatal(err)
	}
	if strings.Join(seen, " ") != "{n: 2} {n: 1}" {
		t.Errorf("sent %q", seen)
	}
}

// A lent literal's call site costs its message nothing once warm: the
// borrowed scratch replaces the allocation a literal makes.
func TestLendLiteralAllocs(t *testing.T) {
	c := NewContext()
	c.Bind("call_module", func([]Value) (Value, error) { return nil, nil })
	if err := c.Load(`function event_received(m) {
	call_module("next", {frame_ref: m.frame_ref, seq: m.seq, tag: "t"});
}`); err != nil {
		t.Fatal(err)
	}
	args := []Value{FromGo(map[string]any{"frame_ref": 3.0, "seq": 9.0})}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.Call("event_received", args...); err != nil {
			t.Fatal(err)
		}
	})
	assertAllocs(t, "event sending a lent literal", allocs, 0)
}
