package script

import (
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
	if _, err := NewContext().Eval("len(42)"); err == nil {
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
	if _, err := NewContext().Eval(`sort([1, "a"])`); err == nil {
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
	if _, err := NewContext().Eval("min()"); err == nil {
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

	if _, err := NewContext().Eval(`json_decode("{bad json")`); err == nil {
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
		c.BindValue("subject", v)
		enc1, err := c.Eval("json_encode(subject)")
		if err != nil {
			return false
		}
		c.BindValue("enc1", enc1)
		enc2, err := c.Eval("json_encode(json_decode(enc1))")
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
	out, err := ToGo(FromGo(in))
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

func TestToGoFunctionsBecomeNil(t *testing.T) {
	c := NewContext()
	v, err := c.Eval("function f() {} f")
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if got, err := ToGo(v); err != nil || got != nil {
		t.Errorf("ToGo(function) = %v, want nil", got)
	}
}

func TestTruthyTable(t *testing.T) {
	truthy := []Value{true, float64(1), float64(-1), "x", NewArray(), NewObject(), &Function{}}
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
			_, err := NewContext().Eval(prelude + src)
			wantLine3(t, err)
		}
	})

	t.Run("ToGo", func(t *testing.T) {
		c := NewContext()
		c.Bind("call_module", func(args []Value) (Value, error) {
			_, err := ToGo(args[1])
			return nil, err
		})
		_, err := c.Eval(prelude + `call_module("x", {v: a})`)
		wantLine3(t, err)
		_, err = NewContext().Eval(prelude + `json_encode({v: a})`)
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
		if _, err := ToGo(v); err != nil {
			t.Errorf("ToGo at MaxDepth: %v", err)
		}
		if _, err := Stringify(v); err != nil {
			t.Errorf("Stringify at MaxDepth: %v", err)
		}
		if _, err := ToGo(&Array{Elems: []Value{v}}); err == nil {
			t.Error("ToGo one past MaxDepth succeeded")
		}
	})
}
