package script

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unique"
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
//	*builtin   — the builtin library's functions (stdlib.go)
type Value any

// Array is a script array with reference semantics.
type Array struct {
	// Elems holds the array's values.
	Elems []Value
}

// Object is a script object with reference semantics: one flat table of
// fields, the way Duktape keeps properties. A lookup scans the table; past
// indexedFields fields the object also keeps a key → slot index, so large
// dictionaries stay O(1). The slot order is insertion order, disturbed by
// deletes, and never observable: every walk a script or the wire sees
// (for-of, keys, values, stringify, JSON) sorts the keys. Read methods
// accept a nil *Object as the empty object. Not safe for concurrent writes.
type Object struct {
	fields []field
	// index maps every key to its slot once the object has held more than
	// indexedFields fields; nil until then.
	index map[string]int32
}

// field is one slot of an object's table, 32 bytes like a cell. A number
// is held unboxed in num, marked by numberTag in ref; any other value is
// ref itself, nil for null. The key is an interned handle: a lookup by
// handle — a literal key, a decoded one, a Go producer's constant —
// compares one word per field.
type field struct {
	key unique.Handle[string]
	num float64
	ref Value
}

// numberTag in a field's ref says that the field holds num. It never leaves
// the field: the walkers that read ref (clone, plainData, sizeWalk,
// shapeOfValue, holds) take it for the number it marks, and every other read
// goes through value or cell.
type numberTag struct{}

func (f *field) isNum() bool {
	_, ok := f.ref.(numberTag)
	return ok
}

// value returns what the field holds, a number boxed: the one place an
// object read allocates.
func (f *field) value() Value {
	if f.isNum() {
		return f.num
	}
	return f.ref
}

// set stores v, unboxing a number.
func (f *field) set(v Value) {
	if n, ok := v.(float64); ok {
		f.setNum(n)
		return
	}
	f.num, f.ref = 0, v
}

func (f *field) setNum(n float64) { f.num, f.ref = n, numberTag{} }

// indexedFields is the size past which an object keeps a key index: below
// it a scan of message-sized tables beats hashing the key.
const indexedFields = 8

// NewObject builds an empty object.
func NewObject() *Object { return &Object{} }

// NewObjectSize builds an empty object with room for n fields. Up to
// indexedFields of them, the object and its table are one allocation.
func NewObjectSize(n int) *Object {
	if n <= 0 || n > indexedFields {
		return &Object{fields: make([]field, 0, max(n, 0))}
	}
	return withTable[n]()
}

// withTable[n] allocates an object and a table of n fields as one block.
var withTable = [indexedFields + 1]func() *Object{
	1: block(func(t *[1]field) []field { return t[:0] }),
	2: block(func(t *[2]field) []field { return t[:0] }),
	3: block(func(t *[3]field) []field { return t[:0] }),
	4: block(func(t *[4]field) []field { return t[:0] }),
	5: block(func(t *[5]field) []field { return t[:0] }),
	6: block(func(t *[6]field) []field { return t[:0] }),
	7: block(func(t *[7]field) []field { return t[:0] }),
	8: block(func(t *[8]field) []field { return t[:0] }),
}

func block[T any](empty func(*T) []field) func() *Object {
	return func() *Object {
		b := new(struct {
			obj   Object
			table T
		})
		b.obj.fields = empty(&b.table)
		return &b.obj
	}
}

// A recordRun is the storage of the objects that are elements of one
// array: one block of Objects and one of fields, two allocations however
// many records the array holds. Each object's table is a window of the field
// block capped at the object's own room, so a field added past it moves that
// object alone onto a table of its own, and Delete and the key index work as
// on any object. The run lives as long as any of its objects does: a script
// that keeps one keypoint of a pose keeps all 17.
type recordRun struct {
	objs   []Object
	fields []field
}

func newRecordRun(objects, fields int) recordRun {
	return recordRun{make([]Object, objects), make([]field, fields)}
}

// next hands out the run's next object, empty, with room for n fields.
func (r *recordRun) next(n int) *Object {
	o := &r.objs[0]
	o.fields, r.objs, r.fields = r.fields[:0:n], r.objs[1:], r.fields[n:]
	return o
}

// NewObjectRun returns n empty objects with room for size fields each,
// allocated as one record run: two allocations for the n objects and their
// tables, where NewObjectSize pays one per object.
func NewObjectRun(n, size int) []Object {
	r := newRecordRun(n, n*size)
	objs := r.objs
	for range n {
		r.next(size)
	}
	return objs
}

// slot returns the slot holding key, or -1.
func (o *Object) slot(key string) int {
	if o == nil {
		return -1
	}
	if o.index != nil {
		if i, ok := o.index[key]; ok {
			return int(i)
		}
		return -1
	}
	for i := range o.fields {
		if o.fields[i].key.Value() == key {
			return i
		}
	}
	return -1
}

// slotOf is slot for a key handle.
func (o *Object) slotOf(key unique.Handle[string]) int {
	if o == nil {
		return -1
	}
	if o.index != nil {
		return o.slot(key.Value())
	}
	for i := range o.fields {
		if o.fields[i].key == key {
			return i
		}
	}
	return -1
}

// Lookup returns the field value and whether the field exists. A number
// comes boxed; Num reads one without allocating.
func (o *Object) Lookup(key string) (Value, bool) {
	if i := o.slot(key); i >= 0 {
		return o.fields[i].value(), true
	}
	return nil, false
}

// Get returns the field value, or nil when absent.
func (o *Object) Get(key string) Value {
	v, _ := o.Lookup(key)
	return v
}

// Num returns the number stored under key, unboxed; false when the field is
// absent or holds anything but a number. Go code that reads numbers off the
// frame path uses it in place of Get, which boxes.
func (o *Object) Num(key unique.Handle[string]) (float64, bool) {
	if i := o.slotOf(key); i >= 0 && o.fields[i].isNum() {
		return o.fields[i].num, true
	}
	return 0, false
}

// Set stores a field value. A number is stored unboxed.
func (o *Object) Set(key string, v Value) {
	o.atKey(key).set(v)
}

// SetNum stores the number n under key without boxing it: how Go code
// builds the numbers of a message.
func (o *Object) SetNum(key unique.Handle[string], n float64) { o.at(key).setNum(n) }

// at returns the field under key, added empty (null) if absent.
func (o *Object) at(key unique.Handle[string]) *field {
	if i := o.slotOf(key); i >= 0 {
		return &o.fields[i]
	}
	return o.add(key)
}

// atKey is at for a key string, interned only when it is added.
func (o *Object) atKey(key string) *field {
	if i := o.slot(key); i >= 0 {
		return &o.fields[i]
	}
	return o.add(unique.Make(key))
}

// add appends a null field under a key the object does not hold.
func (o *Object) add(key unique.Handle[string]) *field {
	o.fields = append(o.fields, field{key: key})
	n := len(o.fields)
	switch {
	case o.index != nil:
		o.index[key.Value()] = int32(n - 1)
	case n > indexedFields:
		o.index = make(map[string]int32, n)
		for i := range o.fields {
			o.index[o.fields[i].key.Value()] = int32(i)
		}
	}
	return &o.fields[n-1]
}

// Delete removes a field, reporting whether it existed. The last slot moves
// into the freed one.
func (o *Object) Delete(key string) bool {
	i := o.slot(key)
	if i < 0 {
		return false
	}
	last := len(o.fields) - 1
	if o.index != nil {
		delete(o.index, key)
		if i != last {
			o.index[o.fields[last].key.Value()] = int32(i)
		}
	}
	o.fields[i] = o.fields[last]
	o.fields[last] = field{}
	o.fields = o.fields[:last]
	return true
}

// Len reports the number of fields.
func (o *Object) Len() int {
	if o == nil {
		return 0
	}
	return len(o.fields)
}

// Field returns the key and value in slot i, 0 <= i < Len(), a number
// boxed. Slots are in no meaningful order; a walk whose order anyone can see
// uses SortedKeys.
func (o *Object) Field(i int) (string, Value) { return o.fields[i].key.Value(), o.fields[i].value() }

// SortedKeys returns the object's keys in sorted order.
func (o *Object) SortedKeys() []string {
	keys := make([]string, o.Len())
	for i := range keys {
		keys[i] = o.fields[i].key.Value()
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

// HostFunc is a Go function callable from scripts. args is lent for the
// call, the way services.Request.Args is: the slice is the context's and is
// reused once the function returns, so a function that keeps the arguments
// copies the slice (the values in it are the caller's to keep).
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
	case *Function, HostFunc, *builtin:
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
// Stringify, Clone, PayloadSize or the JSON codec walks. Shipped
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
	case HostFunc, *builtin:
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
			f := &x.fields[x.slot(k)]
			if !f.isNum() {
				if err := stringifyInto(b, f.ref, depth+1, max); err != nil {
					return err
				}
			} else if b.WriteString(formatNumber(f.num)); max >= 0 && b.Len() > max {
				return ErrTooLong
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
// []any, map[string]any, []byte (becomes string), and nested combinations,
// and map[string]Value, whose values are taken as they are. An object
// built from a map holds its fields in sorted key order.
// Unsupported types are passed through untouched as opaque host values.
// A top-level object has room for the frame_ref a module's event loop sets.
func FromGo(v any) Value { return fromGo(v, 0) }

func fromGo(v any, depth int) Value {
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
			arr.Elems[i] = fromGo(e, depth+1)
		}
		return arr
	case map[string]any:
		obj := NewObjectSize(len(x) + frameRefRoom(depth))
		var room [indexedFields]string
		for _, k := range sortedKeys(x, room[:0]) {
			obj.add(unique.Make(k)).set(fromGo(x[k], depth+1))
		}
		return obj
	case map[string]Value:
		obj := NewObjectSize(len(x) + frameRefRoom(depth))
		var room [indexedFields]string
		for _, k := range sortedKeys(x, room[:0]) {
			obj.add(unique.Make(k)).set(x[k])
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

// sortedKeys appends m's keys to keys in sorted order, so that an object
// built from a Go map holds its fields in one order whatever order the map
// iterates in. A map of up to indexedFields keys sorts in the caller's room
// and allocates nothing.
func sortedKeys[V any](m map[string]V, keys []string) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Clone returns a deep copy of v sharing no array or object with it — the
// one copy a message pays to cross from one module's context to another's,
// or into a Snapshot. Scalars and strings are immutable and shared;
// functions and opaque host values become null, as in JSON. The objects that
// are elements of one array are copied into one record run, so a pose's 17
// keypoints cost two allocations, not 17. The copy of a top-level object has
// room for the frame_ref its receiver sets. It fails only on a value nested
// deeper than MaxDepth.
func Clone(v Value) (Value, error) { return clone(v, 0) }

func clone(v Value, depth int) (Value, error) {
	switch x := v.(type) {
	case nil, bool, float64, string, numberTag:
		return x, nil
	case *Array:
		if depth >= MaxDepth {
			return nil, errTooDeep
		}
		var objects, fields int
		for _, e := range x.Elems {
			if o, ok := e.(*Object); ok {
				objects, fields = objects+1, fields+o.Len()
			}
		}
		run := newRecordRun(objects, fields)
		out := &Array{Elems: make([]Value, len(x.Elems))}
		for i, e := range x.Elems {
			var c Value
			var err error
			if o, ok := e.(*Object); ok {
				c, err = cloneFields(run.next(o.Len()), o, depth+1)
			} else {
				c, err = clone(e, depth+1)
			}
			if err != nil {
				return nil, err
			}
			out.Elems[i] = c
		}
		return out, nil
	case *Object:
		return cloneFields(NewObjectSize(len(x.fields)+frameRefRoom(depth)), x, depth)
	default:
		return nil, nil
	}
}

// cloneFields adds copies of x's fields to out, x sitting depth containers
// below the value Clone was asked for.
func cloneFields(out, x *Object, depth int) (Value, error) {
	if depth >= MaxDepth {
		return nil, errTooDeep
	}
	for _, f := range x.fields {
		c, err := clone(f.ref, depth+1)
		if err != nil {
			return nil, err
		}
		f.ref = c
		*out.add(f.key) = f
	}
	return out, nil
}

// frameRefRoom is the spare slot a top-level (depth 0) message object gets
// for the frame_ref its receiving event loop sets.
func frameRefRoom(depth int) int { return max(1-depth, 0) }

// CopyMessage returns the copy of message msg that its receiver gets, and
// whether what the copy holds is still msg's own. With share set — no one
// writes what msg holds — and msg made of nothing a Clone turns into null (a
// function or an opaque host value), the copy is msg's top-level object
// alone, with room for the frame_ref its receiver sets, and shares the rest;
// otherwise it is a Clone. It fails like Clone on a value nested deeper than
// MaxDepth, and, when sharing, before allocating anything.
func CopyMessage(msg *Object, share bool) (out *Object, shared bool, err error) {
	if share {
		if shared, err = plainData(msg, 0); err != nil {
			return nil, false, err
		}
	}
	if !shared {
		c, err := Clone(msg)
		if err != nil {
			return nil, false, err
		}
		return c.(*Object), false, nil
	}
	out = NewObjectSize(len(msg.fields) + frameRefRoom(0))
	for _, f := range msg.fields {
		*out.add(f.key) = f
	}
	return out, true, nil
}

// plainData reports whether v, sitting depth containers below the value
// being copied, is made of nothing but scalars, strings, arrays and objects:
// all that a Clone copies as it is. It walks in Clone's order and fails
// where Clone would.
func plainData(v Value, depth int) (bool, error) {
	switch x := v.(type) {
	case nil, bool, float64, string, numberTag:
		return true, nil
	case *Array:
		if depth >= MaxDepth {
			return false, errTooDeep
		}
		for _, e := range x.Elems {
			if ok, err := plainData(e, depth+1); !ok || err != nil {
				return ok, err
			}
		}
		return true, nil
	case *Object:
		if depth >= MaxDepth {
			return false, errTooDeep
		}
		for _, f := range x.fields {
			if ok, err := plainData(f.ref, depth+1); !ok || err != nil {
				return ok, err
			}
		}
		return true, nil
	}
	return false, nil
}

// Unshare replaces each of msg's field values with a Clone of it, so that
// msg, a top-level copy CopyMessage made, shares nothing any more: what a module
// that writes does with a message before its handler runs.
func Unshare(msg *Object) error {
	for i := range msg.fields {
		c, err := clone(msg.fields[i].ref, 1)
		if err != nil {
			return err
		}
		msg.fields[i].ref = c
	}
	return nil
}

// Unalias replaces each field of result that holds arg, or a container that
// is one of arg's fields, with a Clone of it. A service handler may hand an
// argument back in its result; a read-only caller must not receive a
// container it keeps privately (a field of call_service's literal message,
// or the message itself) as a value it can pass on.
func Unalias(result, arg *Object) error {
	for i := range result.fields {
		if !holds(result.fields[i].ref, arg, 1) {
			continue
		}
		c, err := clone(result.fields[i].ref, 1)
		if err != nil {
			return err
		}
		result.fields[i].ref = c
	}
	return nil
}

// holds reports whether v, sitting depth containers deep, is or contains
// arg or one of arg's container fields. Past MaxDepth it answers true, so
// that the Clone that follows fails as any other copy of v would.
func holds(v Value, arg *Object, depth int) bool {
	switch x := v.(type) {
	case *Array:
		if depth >= MaxDepth || isField(arg, x) {
			return true
		}
		for _, e := range x.Elems {
			if holds(e, arg, depth+1) {
				return true
			}
		}
	case *Object:
		if depth >= MaxDepth || x == arg || isField(arg, x) {
			return true
		}
		for _, f := range x.fields {
			if holds(f.ref, arg, depth+1) {
				return true
			}
		}
	}
	return false
}

// reachBudget is how many values reaches visits before it gives up and
// answers true: a result that shares substructure (a = [a, a], twenty times
// over) is a few dozen objects but millions of paths.
const reachBudget = 4096

// reaches reports whether v is o or holds it at any depth: whether a host
// call hands back, in its result, the object it was lent. Past MaxDepth or
// reachBudget values it answers true, the answer that keeps o out of reuse.
func reaches(v Value, o *Object) bool {
	return reach(v, o, 0, reachBudget) < 0
}

// reach is reaches for v sitting depth containers deep, with left values
// still to visit. It returns the values left, or -1 once it found o or
// gave up.
func reach(v Value, o *Object, depth, left int) int {
	if left--; left < 0 {
		return -1
	}
	switch x := v.(type) {
	case *Array:
		if depth >= MaxDepth {
			return -1
		}
		for _, e := range x.Elems {
			if left = reach(e, o, depth+1, left); left < 0 {
				return -1
			}
		}
	case *Object:
		if x == o || depth >= MaxDepth {
			return -1
		}
		for i := range x.fields {
			if left = reach(x.fields[i].ref, o, depth+1, left); left < 0 {
				return -1
			}
		}
	}
	return left
}

// isField reports whether container c is the value of one of o's fields.
func isField(o *Object, c Value) bool {
	for _, f := range o.fields {
		if f.ref == c {
			return true
		}
	}
	return false
}
