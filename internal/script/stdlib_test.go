package script

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestLenBuiltin(t *testing.T) {
	cases := map[string]float64{
		`len("hello")`:   5,
		`len([1,2,3])`:   3,
		`len({a:1,b:2})`: 2,
		`len("")`:        0,
		`len(null)`:      0,
	}
	for src, want := range cases {
		if got := evalNum(t, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if err := NewContext().Load("len(42)"); err == nil {
		t.Error("len(42) succeeded")
	}
}

func TestArrayBuiltins(t *testing.T) {
	cases := map[string]string{
		`var a=[1]; push(a,2,3); str(a)`:      "[1, 2, 3]",
		`var a=[1,2,3]; str(pop(a)) + str(a)`: "3[1, 2]",
		`str(pop([]))`:                        "null",
		`var a=[1,2]; str(shift(a)) + str(a)`: "1[2]",
		`str(shift([]))`:                      "null",
		`var a=[3]; unshift(a,1,2); str(a)`:   "[1, 2, 3]",
		`str(slice([1,2,3,4], 1, 3))`:         "[2, 3]",
		`str(slice([1,2,3,4], 2))`:            "[3, 4]",
		`str(slice([1,2,3,4], -2))`:           "[3, 4]",
		`str(slice([1,2,3], 0, -1))`:          "[1, 2]",
		`str(slice([1,2], 5))`:                "[]",
		`str(concat([1],[2,3],[]))`:           "[1, 2, 3]",
		`str(index_of([5,6,7], 6))`:           "1",
		`str(index_of([5,6,7], 9))`:           "-1",
		`str(reverse([1,2,3]))`:               "[3, 2, 1]",
		`str(sort([3,1,2]))`:                  "[1, 2, 3]",
		`str(sort(["b","a"]))`:                "[a, b]",
		`str(range(4))`:                       "[0, 1, 2, 3]",
		`str(contains([1,2], 2))`:             "true",
		`str(contains([1,2], 3))`:             "false",
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("%s = %v, want %q", src, got, want)
		}
	}
	if err := NewContext().Load(`sort([1, "a"])`); err == nil {
		t.Error("sort on mixed types succeeded")
	}
}

func TestSliceDoesNotAliasSource(t *testing.T) {
	src := `
		var a = [1, 2, 3];
		var b = slice(a, 0);
		b[0] = 99;
		a[0]
	`
	if got := evalNum(t, src); got != 1 {
		t.Errorf("slice aliases source: a[0] = %v", got)
	}
}

// TestHugeNumbersDoNotWrap: a float too large for an int (1e300, Inf, NaN)
// must be compared as a float before it is converted. Converted first, it
// wrapped to a negative int that passed the bounds checks: range and an
// index write panicked the host, and slice and substr clamped to the wrong
// end.
func TestHugeNumbersDoNotWrap(t *testing.T) {
	for _, src := range []string{
		`range(sqrt(-1))`,
		`var a = []; a[1e300] = 1`,
		`var a = []; a[pow(10, 400)] = 1`,
	} {
		var rt *RuntimeError
		if err := NewContext().Load(src); !errors.As(err, &rt) {
			t.Errorf("%s: err = %v, want a runtime error", src, err)
		}
	}
	for src, want := range map[string]string{
		`substr("abc", 1e300, 1)`:        "",
		`substr("abc", sqrt(-1))`:        "abc",
		`str(slice([1,2,3], 0, 1e300))`:  "[1, 2, 3]",
		`str(slice([1,2,3], -1e300, 2))`: "[1, 2]",
		`str(slice([1,2,3], 1, -1e300))`: "[]",
		`slice("abc", 1, pow(10, 400))`:  "bc",
		`str(slice([1,2,3], -1.5))`:      "[3]",
	} {
		if got := evalVal(t, src); got != want {
			t.Errorf("%s = %v, want %q", src, got, want)
		}
	}
}

func TestObjectBuiltins(t *testing.T) {
	cases := map[string]string{
		`str(keys({b:1, a:2}))`:                  "[a, b]",
		`str(values({b:1, a:2}))`:                "[2, 1]",
		`str(has({a:1}, "a"))`:                   "true",
		`str(has({a:1}, "z"))`:                   "false",
		`var o={a:1}; str(remove(o,"a"))+str(o)`: "true{}",
		`var o={}; str(remove(o,"a"))`:           "false",
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("%s = %v, want %q", src, got, want)
		}
	}
}

func TestMathBuiltins(t *testing.T) {
	cases := map[string]float64{
		"abs(-3)":      3,
		"floor(2.9)":   2,
		"ceil(2.1)":    3,
		"round(2.5)":   3,
		"sqrt(16)":     4,
		"pow(2, 10)":   1024,
		"min(3, 1, 2)": 1,
		"max(3, 9, 2)": 9,
		"exp(0)":       1,
		"log(1)":       0,
		"sin(0)":       0,
		"atan2(0, 1)":  0,
	}
	for src, want := range cases {
		if got := evalNum(t, src); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	if err := NewContext().Load("min()"); err == nil {
		t.Error("min() with no args succeeded")
	}
}

func TestStringBuiltins(t *testing.T) {
	cases := map[string]string{
		`substr("abcdef", 1, 3)`:          "bc",
		`substr("abcdef", 3)`:             "def",
		`str(split("a,b,c", ","))`:        "[a, b, c]",
		`join(["a","b"], "-")`:            "a-b",
		`join([1,2], "+")`:                "1+2",
		`upper("abc")`:                    "ABC",
		`lower("ABC")`:                    "abc",
		`trim("  x  ")`:                   "x",
		`str(contains("hello", "ell"))`:   "true",
		`str(starts_with("hello", "he"))`: "true",
		`str(ends_with("hello", "lo"))`:   "true",
		`str(index_of("hello", "ll"))`:    "2",
	}
	for src, want := range cases {
		if got := evalVal(t, src); got != want {
			t.Errorf("%s = %v, want %q", src, got, want)
		}
	}
}

func TestJSONBuiltins(t *testing.T) {
	src := `
		var o = json_decode('{"name":"pose","points":[1,2,3],"ok":true}');
		o.name + ":" + str(len(o.points)) + ":" + str(o.ok)
	`
	if got := evalVal(t, src); got != "pose:3:true" {
		t.Errorf("json_decode = %v", got)
	}

	src2 := `json_encode({a: [1, 2], b: "x"})`
	if got := evalVal(t, src2); got != `{"a":[1,2],"b":"x"}` {
		t.Errorf("json_encode = %v", got)
	}

	if err := NewContext().Load(`json_decode("{bad json")`); err == nil {
		t.Error("json_decode of invalid input succeeded")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	// Property: encode(decode(encode(x))) == encode(x) for script values
	// built from Go primitives.
	c := NewContext()
	check := func(s map[string]float64, arr []float64, label string) bool {
		in := map[string]any{"label": label}
		for k, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			in[k] = v
		}
		fs := make([]any, 0, len(arr))
		for _, v := range arr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			fs = append(fs, v)
		}
		in["arr"] = fs

		v := FromGo(in)
		if err := c.Load("function enc(v) { return json_encode(v); } function reenc(s) { return json_encode(json_decode(s)); }"); err != nil {
			return false
		}
		enc1, err := c.Call("enc", v)
		if err != nil {
			return false
		}
		enc2, err := c.Call("reenc", enc1)
		if err != nil {
			return false
		}
		return enc1 == enc2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromGoToGoRoundTrip(t *testing.T) {
	in := map[string]any{
		"n":    1.5,
		"s":    "text",
		"b":    true,
		"null": nil,
		"arr":  []any{1.0, "two", false},
		"obj":  map[string]any{"nested": []any{map[string]any{"deep": 9.0}}},
	}
	enc, err := AppendJSON(nil, FromGo(in))
	var out any
	if err == nil {
		err = json.Unmarshal(enc, &out)
	}
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Errorf("round trip mismatch:\n got %#v\nwant %#v", out, in)
	}
}

func TestFromGoNumericWidths(t *testing.T) {
	cases := []any{int(3), int32(3), int64(3), uint64(3), float32(3)}
	for _, in := range cases {
		if got := FromGo(in); got != float64(3) {
			t.Errorf("FromGo(%T) = %v, want float64(3)", in, got)
		}
	}
	if got := FromGo([]byte("bytes")); got != "bytes" {
		t.Errorf("FromGo([]byte) = %v", got)
	}
	if got := cellOf(FromGo([]float64{1, 2})).display(); got != "[1, 2]" {
		t.Errorf("FromGo([]float64) = %v", got)
	}
	if got := cellOf(FromGo([]string{"a"})).display(); got != "[a]" {
		t.Errorf("FromGo([]string) = %v", got)
	}
}

// TestToGoFunctionsBecomeNil: a function value has no form outside its
// context, so it leaves as null, both through Clone (a local call_module)
// and through the JSON codec (a remote one).
func TestToGoFunctionsBecomeNil(t *testing.T) {
	fn, err := evalIn(NewContext(), "function f() {} f")
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if got, err := Clone(fn); err != nil || got != nil {
		t.Errorf("Clone(function) = %v, %v; want nil", got, err)
	}
	if got, err := AppendJSON(nil, fn); err != nil || string(got) != "null" {
		t.Errorf("AppendJSON(function) = %s, %v; want null", got, err)
	}
}

func TestTruthyTable(t *testing.T) {
	truthy := []Value{true, float64(1), float64(-1), "x", &Array{}, NewObject(), &Function{}}
	falsy := []Value{nil, false, float64(0), math.NaN(), ""}
	for _, v := range truthy {
		if !Truthy(v) {
			t.Errorf("Truthy(%v) = false, want true", v)
		}
	}
	for _, v := range falsy {
		if Truthy(v) {
			t.Errorf("Truthy(%v) = true, want false", v)
		}
	}
}

// A script can build a value that contains itself. Walking one used to
// recurse until the Go stack overflowed, which kills the host process, not
// the sandbox; each walker now gives up past MaxDepth with an error raised
// at the offending call.
func TestSelfContainingValueIsBounded(t *testing.T) {
	const prelude = "var a = []; push(a, a);\nvar keep = 7;\n"
	wantLine3 := func(t *testing.T, err error) {
		t.Helper()
		var rt *RuntimeError
		if !errors.As(err, &rt) {
			t.Fatalf("err = %v, want a RuntimeError", err)
		}
		if rt.Pos.Line != 3 || !strings.Contains(rt.Msg, "nests deeper") {
			t.Errorf("err = %v, want the depth error positioned on line 3", err)
		}
	}

	t.Run("Stringify", func(t *testing.T) {
		for _, src := range []string{`str(a)`, `"" + a`, `join([a], ",")`, `var o = {}; o[a]`} {
			err := NewContext().Load(prelude + src)
			wantLine3(t, err)
		}
	})

	t.Run("Clone", func(t *testing.T) {
		c := NewContext()
		c.Bind("call_module", func(args []Value) (Value, error) {
			_, err := Clone(args[1])
			return nil, err
		})
		err := c.Load(prelude + `call_module("x", {v: a})`)
		wantLine3(t, err)
		err = NewContext().Load(prelude + `json_encode({v: a})`)
		wantLine3(t, err)
	})

	t.Run("Snapshot", func(t *testing.T) {
		c := NewContext()
		if err := c.Load(prelude); err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().String(); got != "keep=7\n" {
			t.Errorf("snapshot = %q, want the self-containing global left behind and keep=7 kept", got)
		}
	})

	t.Run("MaxDepth itself is fine", func(t *testing.T) {
		v := Value(float64(1))
		for i := 0; i < MaxDepth; i++ {
			v = &Array{Elems: []Value{v}}
		}
		if _, err := Clone(v); err != nil {
			t.Errorf("Clone at MaxDepth: %v", err)
		}
		if _, err := Stringify(v); err != nil {
			t.Errorf("Stringify at MaxDepth: %v", err)
		}
		if _, err := Clone(&Array{Elems: []Value{v}}); err == nil {
			t.Error("Clone one past MaxDepth succeeded")
		}
	})
}
