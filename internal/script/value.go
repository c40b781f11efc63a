package script

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Value is a PipeScript runtime value. The concrete types are:
//
//	nil        — null/undefined
//	bool       — booleans
//	float64    — numbers
//	string     — strings
//	*Array     — arrays (reference semantics)
//	*Object    — objects (reference semantics)
//	*Function  — script closures
//	HostFunc   — Go functions exposed to scripts
type Value any

// Array is a script array with reference semantics.
type Array struct {
	// Elems holds the array's values.
	Elems []Value
}

// NewArray builds an array from values.
func NewArray(elems ...Value) *Array { return &Array{Elems: elems} }

// Object is a script object with reference semantics. Key iteration order is
// not stable; use SortedKeys for deterministic walks.
type Object struct {
	// Fields maps keys to values.
	Fields map[string]Value
}

// NewObject builds an empty object.
func NewObject() *Object { return &Object{Fields: make(map[string]Value)} }

// Get returns the field value, or nil when absent.
func (o *Object) Get(key string) Value { return o.Fields[key] }

// Set stores a field value.
func (o *Object) Set(key string, v Value) {
	if o.Fields == nil {
		o.Fields = make(map[string]Value)
	}
	o.Fields[key] = v
}

// SortedKeys returns the object's keys in sorted order.
func (o *Object) SortedKeys() []string {
	keys := make([]string, 0, len(o.Fields))
	for k := range o.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Function is a script-defined closure.
type Function struct {
	name string
	lit  *funcLit
	// env is the frame the literal was evaluated in: the innermost enclosing
	// scope that declares anything, nil for the globals.
	env *frame
}

// Name reports the function's declared name, or "" for anonymous functions.
func (f *Function) Name() string { return f.name }

// HostFunc is a Go function callable from scripts.
type HostFunc func(args []Value) (Value, error)

// Truthy reports JavaScript-style truthiness: null, false, 0, NaN and ""
// are falsy; everything else is truthy.
func Truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	default:
		return true
	}
}

// TypeName reports the script-visible type name of v.
func TypeName(v Value) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "boolean"
	case float64:
		return "number"
	case string:
		return "string"
	case *Array:
		return "array"
	case *Object:
		return "object"
	case *Function, HostFunc:
		return "function"
	default:
		return fmt.Sprintf("host<%T>", v)
	}
}

// valuesEqual implements the == operator (strict, no coercion; arrays and
// objects compare by identity).
func valuesEqual(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case *Array:
		y, ok := b.(*Array)
		return ok && x == y
	case *Object:
		y, ok := b.(*Object)
		return ok && x == y
	case *Function:
		y, ok := b.(*Function)
		return ok && x == y
	default:
		return false
	}
}

// MaxDepth bounds how deeply arrays and objects may nest in a value that
// Stringify, Clone, PayloadSize, ToGo or the JSON codec walks. Shipped
// payloads nest four or five levels; the bound exists because scripts can
// build a value that contains itself (push(a, a)), and a walk with no bound
// recurses until the Go stack — the host's, not the sandbox's — overflows.
const MaxDepth = 128

// errTooDeep is what the walkers return past MaxDepth. Raised from a host
// call it surfaces as a script error at the call's position.
var errTooDeep = fmt.Errorf("value nests deeper than %d levels (does it contain itself?)", MaxDepth)

// Stringify renders v for display and string concatenation. It fails only
// on a value nested deeper than MaxDepth.
func Stringify(v Value) (string, error) { return StringifyMax(v, -1) }

// StringifyMax is Stringify for output metered against a budget: once the
// rendering is longer than max bytes (max < 0: never) it stops with
// ErrTooLong, having written about max bytes however large the rendering
// would have been — a value that shares substructure renders exponentially
// larger than it is.
func StringifyMax(v Value, max int) (string, error) {
	var s string
	switch x := v.(type) {
	case nil:
		s = "null"
	case bool:
		s = strconv.FormatBool(x)
	case float64:
		s = formatNumber(x)
	case string:
		s = x
	case *Array, *Object:
		var b strings.Builder
		if err := stringifyInto(&b, x, 0, max); err != nil {
			return "", err
		}
		return b.String(), nil
	case *Function:
		s = "function"
		if x.name != "" {
			s = "function " + x.name
		}
	case HostFunc:
		s = "function (host)"
	default:
		s = fmt.Sprintf("%v", v)
	}
	if max >= 0 && len(s) > max {
		return "", ErrTooLong
	}
	return s, nil
}

// stringifyInto writes v, which sits depth containers below the value
// StringifyMax was asked for.
func stringifyInto(b *strings.Builder, v Value, depth, max int) error {
	// Grow by doubling, not append's quarter: a rendering that stops at a
	// budget then costs the host twice the budget, not five times.
	if b.Cap()-b.Len() < 64 {
		b.Grow(b.Cap() + 64)
	}
	switch x := v.(type) {
	case *Array:
		if depth >= MaxDepth {
			return errTooDeep
		}
		b.WriteByte('[')
		for i, e := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			if err := stringifyInto(b, e, depth+1, max); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case *Object:
		if depth >= MaxDepth {
			return errTooDeep
		}
		b.WriteByte('{')
		for i, k := range x.SortedKeys() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k)
			b.WriteString(": ")
			if err := stringifyInto(b, x.Fields[k], depth+1, max); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	default:
		s, _ := Stringify(v) // a scalar: no depth to exceed
		b.WriteString(s)
	}
	if max >= 0 && b.Len() > max {
		return ErrTooLong
	}
	return nil
}

// formatNumber renders numbers the way scripts expect: integers without a
// decimal point.
func formatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// FromGo converts a Go value (as produced by encoding/json or host code)
// into a script Value. Supported inputs: nil, bool, numeric types, string,
// []any, map[string]any, []byte (becomes string), and nested combinations.
// Unsupported types are passed through untouched as opaque host values.
func FromGo(v any) Value {
	switch x := v.(type) {
	case nil:
		return nil
	case bool, float64, string:
		return x
	case int:
		return float64(x)
	case int32:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float32:
		return float64(x)
	case []byte:
		return string(x)
	case []any:
		arr := &Array{Elems: make([]Value, len(x))}
		for i, e := range x {
			arr.Elems[i] = FromGo(e)
		}
		return arr
	case map[string]any:
		obj := NewObject()
		for k, e := range x {
			obj.Set(k, FromGo(e))
		}
		return obj
	case []float64:
		arr := &Array{Elems: make([]Value, len(x))}
		for i, e := range x {
			arr.Elems[i] = e
		}
		return arr
	case []string:
		arr := &Array{Elems: make([]Value, len(x))}
		for i, e := range x {
			arr.Elems[i] = e
		}
		return arr
	default:
		return v
	}
}

// ToGo converts a script Value into plain Go data (nil, bool, float64,
// string, []any, map[string]any) for Go-side consumers; no payload path
// converts. Functions convert to nil. It fails only on a value nested
// deeper than MaxDepth.
func ToGo(v Value) (any, error) { return toGo(v, 0) }

func toGo(v Value, depth int) (any, error) {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return x, nil
	case *Array:
		if depth >= MaxDepth {
			return nil, errTooDeep
		}
		out := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			g, err := toGo(e, depth+1)
			if err != nil {
				return nil, err
			}
			out[i] = g
		}
		return out, nil
	case *Object:
		if depth >= MaxDepth {
			return nil, errTooDeep
		}
		out := make(map[string]any, len(x.Fields))
		for k, e := range x.Fields {
			g, err := toGo(e, depth+1)
			if err != nil {
				return nil, err
			}
			out[k] = g
		}
		return out, nil
	default:
		return nil, nil
	}
}

// Clone returns a deep copy of v sharing no array or object with it — the
// one copy a message pays to cross from one module's context to another's,
// or into a Snapshot. Scalars and strings are immutable and shared;
// functions and opaque host values become null, as in ToGo. It fails only
// on a value nested deeper than MaxDepth.
func Clone(v Value) (Value, error) { return clone(v, 0) }

func clone(v Value, depth int) (Value, error) {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return x, nil
	case *Array:
		if depth >= MaxDepth {
			return nil, errTooDeep
		}
		out := &Array{Elems: make([]Value, len(x.Elems))}
		for i, e := range x.Elems {
			c, err := clone(e, depth+1)
			if err != nil {
				return nil, err
			}
			out.Elems[i] = c
		}
		return out, nil
	case *Object:
		if depth >= MaxDepth {
			return nil, errTooDeep
		}
		out := &Object{Fields: make(map[string]Value, len(x.Fields))}
		for k, e := range x.Fields {
			c, err := clone(e, depth+1)
			if err != nil {
				return nil, err
			}
			out.Fields[k] = c
		}
		return out, nil
	default:
		return nil, nil
	}
}
