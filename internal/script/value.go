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

// Stringify renders v for display and string concatenation.
func Stringify(v Value) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case bool:
		return strconv.FormatBool(x)
	case float64:
		return formatNumber(x)
	case string:
		return x
	case *Array:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(Stringify(e))
		}
		b.WriteByte(']')
		return b.String()
	case *Object:
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range x.SortedKeys() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k)
			b.WriteString(": ")
			b.WriteString(Stringify(x.Fields[k]))
		}
		b.WriteByte('}')
		return b.String()
	case *Function:
		if x.name != "" {
			return "function " + x.name
		}
		return "function"
	case HostFunc:
		return "function (host)"
	default:
		return fmt.Sprintf("%v", v)
	}
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
// string, []any, map[string]any), suitable for encoding/json. Functions
// convert to nil.
func ToGo(v Value) any {
	switch x := v.(type) {
	case nil, bool, float64, string:
		return x
	case *Array:
		out := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			out[i] = ToGo(e)
		}
		return out
	case *Object:
		out := make(map[string]any, len(x.Fields))
		for k, e := range x.Fields {
			out[k] = ToGo(e)
		}
		return out
	default:
		return nil
	}
}
