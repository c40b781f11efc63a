package script

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// builtins is the builtin function library every context starts with, and
// the one table of it: each entry's Go body, its price and the signature the
// analyzer checks call sites against. The set mirrors the helpers the
// paper's JavaScript modules would reach for: array and object manipulation,
// math, strings and JSON. The functions keep no state, so one table serves
// every context.
var builtins = map[string]*builtin{
	// ---- general ----
	"len":    {stdLen, flat, sig1(Param{"value", "string|array|object|null"})},
	"str":    {stdStr, flat, sig1(Param{"value", "any"})},
	"num":    {stdNum, perItem, sig1(Param{"value", "any"})},
	"is_nan": {stdIsNaN, flat, sig1(Param{"value", "any"})},

	// ---- arrays ----
	"push":     {stdPush, flat, Signature{Min: 1, Max: -1, Params: []Param{{"array", "array"}}, Rest: "any", Writes: 1}},
	"pop":      {stdPop, flat, Signature{Min: 1, Max: 1, Params: []Param{{"array", "array"}}, Writes: 1}},
	"shift":    {stdShift, flat, Signature{Min: 1, Max: 1, Params: []Param{{"array", "array"}}, Writes: 1}},
	"unshift":  {stdUnshift, perItem, Signature{Min: 1, Max: -1, Params: []Param{{"array", "array"}}, Rest: "any", Writes: 1}},
	"slice":    {stdSlice, perItem, Signature{Min: 2, Max: 3, Params: []Param{{"value", "array|string"}, {"start", "number"}, {"end", "number"}}}},
	"concat":   {stdConcat, perArg, Signature{Min: 0, Max: -1, Rest: "array"}},
	"index_of": {search("index_of", func(i int) Value { return float64(i) }), searched, sig2(Param{"value", "array|string"}, Param{"needle", "any"})},
	"reverse":  {stdReverse, perItem, Signature{Min: 1, Max: 1, Params: []Param{{"array", "array"}}, Writes: 1, Aliases: true}},
	"sort":     {stdSort, sorted, Signature{Min: 1, Max: 1, Params: []Param{{"array", "array"}}, Writes: 1, Aliases: true}},
	"range":    {stdRange, counted, sig1(Param{"n", "number"})},

	// ---- objects ----
	"keys":   {listFields("keys", func(_ *Object, k string) Value { return k }), sorted, sig1(Param{"object", "object"})},
	"values": {listFields("values", (*Object).Get), sorted, sig1(Param{"object", "object"})},
	"has":    {keyOp("has", func(o *Object, k string) Value { return o.slot(k) >= 0 }), keyed, sig2(Param{"object", "object"}, Param{"key", "string"})},
	"remove": {keyOp("remove", (*Object).Delete), keyed, Signature{Min: 2, Max: 2, Params: []Param{{"object", "object"}, {"key", "string"}}, Writes: 1}},

	// ---- math ----
	"abs":   {math1(math.Abs), flat, sig1(Param{"x", "number"})},
	"floor": {math1(math.Floor), flat, sig1(Param{"x", "number"})},
	"ceil":  {math1(math.Ceil), flat, sig1(Param{"x", "number"})},
	"round": {math1(math.Round), flat, sig1(Param{"x", "number"})},
	"sqrt":  {math1(math.Sqrt), flat, sig1(Param{"x", "number"})},
	"exp":   {math1(math.Exp), flat, sig1(Param{"x", "number"})},
	"log":   {math1(math.Log), flat, sig1(Param{"x", "number"})},
	"sin":   {math1(math.Sin), flat, sig1(Param{"x", "number"})},
	"cos":   {math1(math.Cos), flat, sig1(Param{"x", "number"})},
	"atan2": {math2(math.Atan2), flat, sig2(Param{"y", "number"}, Param{"x", "number"})},
	"pow":   {math2(math.Pow), flat, sig2(Param{"base", "number"}, Param{"exp", "number"})},
	"min":   {fold("min", math.Min), flat, Signature{Min: 1, Max: -1, Rest: "number"}},
	"max":   {fold("max", math.Max), flat, Signature{Min: 1, Max: -1, Rest: "number"}},

	// ---- strings ----
	"substr":      {stdSubstr, flat, Signature{Min: 2, Max: 3, Params: []Param{{"string", "string"}, {"start", "number"}, {"end", "number"}}}},
	"split":       {stdSplit, searched, sig2(Param{"string", "string"}, Param{"separator", "string"})},
	"join":        {stdJoin, perItem, sig2(Param{"array", "array"}, Param{"separator", "string"})},
	"upper":       {strMap("upper", strings.ToUpper), perItem, sig1(Param{"string", "string"})},
	"lower":       {strMap("lower", strings.ToLower), perItem, sig1(Param{"string", "string"})},
	"trim":        {strMap("trim", strings.TrimSpace), perItem, sig1(Param{"string", "string"})},
	"contains":    {search("contains", func(i int) Value { return i >= 0 }), searched, sig2(Param{"value", "string|array"}, Param{"needle", "any"})},
	"starts_with": {strTest("starts_with", strings.HasPrefix), perItem, sig2(Param{"string", "string"}, Param{"prefix", "string"})},
	"ends_with":   {strTest("ends_with", strings.HasSuffix), perItem, sig2(Param{"string", "string"}, Param{"suffix", "string"})},

	// ---- JSON ----
	"json_encode": {stdJSONEncode, flat, sig1(Param{"value", "any"})},
	"json_decode": {stdJSONDecode, perItem, sig1(Param{"text", "string"})},
}

// builtin is one entry of the builtin library. Its value is what a context
// binds the name to; the interpreter charges its price before calling fn.
type builtin struct {
	fn    builtinFunc
	price price
	sig   Signature
}

// builtinFunc is a builtin's Go body; in is the invocation calling it.
type builtinFunc func(in *interp, args []Value) (Value, error)

// price is how a builtin's Go-side work grows with its input, in steps: one
// per element or byte it reads or writes, where n counts an array's
// elements, an object's fields or a string's bytes, and one per comparison
// it makes, plus one per cmpBlock bytes that comparison can read. The
// interpreter charges it before the work (callValue) and pipecost bounds the
// same charge (cost.go), so steps bound a handler's CPU time, builtins
// included, up to the allocation the memory budget bounds (EXPERIMENTS.md
// "One CPU budget").
type price uint8

const (
	flat     price = iota // constant work, or output the memory budget cuts off
	perItem               // n steps, n the size of the first argument
	perArg                // n steps, n the sizes of all the arguments summed
	counted               // n steps, n the count the first argument asks for
	sorted                // n·⌈log₂ n⌉ comparisons of the first argument's items or keys
	searched              // n comparisons with the second argument, n the size of the first
	keyed                 // one lookup by the second argument, whose first block the call pays
)

// cmpBlock is how many bytes of a string comparison one step pays for. The
// first block rides on the step that makes the comparison, so strings
// shorter than it compare for free; a block reads in 2–8 ns against a
// step's ~15 ns.
const cmpBlock = 64

// charge is what a call with args pays beyond the call's own step.
func (p price) charge(args []Value) int64 {
	var n, w int64
	switch p {
	case flat:
		return 0
	case perArg:
		for _, a := range args {
			n += size(a)
		}
	case counted:
		if x, ok := arg(args, 0).(float64); ok && x > 0 {
			n = int64(min(x, float64(costCap)))
		}
	case sorted:
		n, w = size(arg(args, 0)), longest(arg(args, 0))
	default:
		n = size(arg(args, 0))
		if s, ok := arg(args, 1).(string); ok {
			w = int64(len(s))
		}
	}
	return p.of(n, w)
}

// of is the price of a call over n, whose comparisons read strings of up to
// w bytes.
func (p price) of(n, w int64) int64 {
	cmp := 1 + w/cmpBlock
	switch p {
	case sorted:
		return satMul(satMul(n, int64(bits.Len64(uint64(max(n, 1)-1)))), cmp)
	case searched:
		return satMul(n, cmp)
	case keyed:
		return cmp - 1
	}
	return n
}

// size is what one argument counts for in a price.
func size(v Value) int64 {
	switch x := v.(type) {
	case string:
		return int64(len(x))
	case *Array:
		return int64(len(x.Elems))
	case *Object:
		return int64(x.Len())
	}
	return 0
}

// longest is the longest string among an array's items or an object's
// keys: as far as one comparison sorting them can read.
func longest(v Value) (w int64) {
	switch x := v.(type) {
	case *Array:
		for _, e := range x.Elems {
			if s, ok := e.(string); ok {
				w = max(w, int64(len(s)))
			}
		}
	case *Object:
		for i := range x.fields {
			w = max(w, int64(len(x.fields[i].key.Value())))
		}
	}
	return w
}

// installStdlib binds the builtins as globals of c.
func installStdlib(c *Context) {
	for name, b := range builtins {
		c.defineGlobal(name, cell{ref: b}, false)
	}
}

// memLeft is how many more bytes the invocation may allocate, or -1 when
// memory is not limited.
func (in *interp) memLeft() int {
	if in.memLimit > 0 {
		return int(max(in.memLimit-in.memUsed, 0))
	}
	return -1
}

// memBreach turns a builtin's ErrTooLong — it stopped writing at memLeft —
// into the memory-budget breach it stands for; any other error passes
// through prefixed with the builtin's name.
func (in *interp) memBreach(fn string, err error) error {
	if err == ErrTooLong {
		return in.charge(int64(in.memLeft())+1, Position{})
	}
	return fmt.Errorf("%s: %w", fn, err)
}

// stdStr renders its argument. It costs no steps beyond its call's: the
// rendering stops at what is left of the memory budget, which its result is
// then charged against.
func stdStr(in *interp, args []Value) (Value, error) {
	s, err := StringifyMax(arg(args, 0), in.memLeft())
	if err == ErrTooLong {
		err = in.memBreach("str", err)
	}
	return s, err
}

func arg[T any](args []T, i int) (v T) {
	if i < len(args) {
		v = args[i]
	}
	return v
}

// typedArg is argument i of builtin fn, which must be a T: what, for the
// error that says it is not.
func typedArg[T any](args []Value, i int, fn, what string) (T, error) {
	v, ok := arg(args, i).(T)
	if !ok {
		return v, fmt.Errorf("%s: argument %d must be %s, got %s", fn, i+1, what, TypeName(arg(args, i)))
	}
	return v, nil
}

func numArg(args []Value, i int, fn string) (float64, error) {
	return typedArg[float64](args, i, fn, "a number")
}

func strArg(args []Value, i int, fn string) (string, error) {
	return typedArg[string](args, i, fn, "a string")
}

func arrArg(args []Value, i int, fn string) (*Array, error) {
	return typedArg[*Array](args, i, fn, "an array")
}

func math1(f func(float64) float64) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		n, err := numArg(args, 0, "math builtin")
		if err != nil {
			return nil, err
		}
		return f(n), nil
	}
}

func math2(f func(a, b float64) float64) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		a, err := numArg(args, 0, "math builtin")
		if err != nil {
			return nil, err
		}
		b, err := numArg(args, 1, "math builtin")
		if err != nil {
			return nil, err
		}
		return f(a, b), nil
	}
}

// strMap is a string-to-string builtin named name.
func strMap(name string, f func(string) string) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		s, err := strArg(args, 0, name)
		return f(s), err
	}
}

// strTest is a builtin named name that tests one string against another.
func strTest(name string, f func(s, t string) bool) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		s, err := strArg(args, 0, name)
		if err != nil {
			return nil, err
		}
		t, err := strArg(args, 1, name)
		return err == nil && f(s, t), err
	}
}

func stdIsNaN(_ *interp, args []Value) (Value, error) {
	n, ok := arg(args, 0).(float64)
	return ok && math.IsNaN(n), nil
}

func stdLen(_ *interp, args []Value) (Value, error) {
	switch x := arg(args, 0).(type) {
	case string:
		return float64(len(x)), nil
	case *Array:
		return float64(len(x.Elems)), nil
	case *Object:
		return float64(len(x.fields)), nil
	case nil:
		return float64(0), nil
	default:
		return nil, fmt.Errorf("len: unsupported type %s", TypeName(x))
	}
}

func stdNum(_ *interp, args []Value) (Value, error) {
	switch x := arg(args, 0).(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return float64(1), nil
		}
		return float64(0), nil
	case string:
		n, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return math.NaN(), nil
		}
		return n, nil
	default:
		return math.NaN(), nil
	}
}

func stdPush(_ *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "push")
	if err != nil {
		return nil, err
	}
	a.Elems = append(a.Elems, args[1:]...)
	return float64(len(a.Elems)), nil
}

func stdPop(_ *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "pop")
	if err != nil {
		return nil, err
	}
	if len(a.Elems) == 0 {
		return nil, nil
	}
	v := a.Elems[len(a.Elems)-1]
	a.Elems = a.Elems[:len(a.Elems)-1]
	return v, nil
}

func stdShift(_ *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "shift")
	if err != nil {
		return nil, err
	}
	if len(a.Elems) == 0 {
		return nil, nil
	}
	v := a.Elems[0]
	a.Elems[0] = nil // no builtin shares an Elems array, so reslicing is safe
	a.Elems = a.Elems[1:]
	return v, nil
}

func stdUnshift(_ *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "unshift")
	if err != nil {
		return nil, err
	}
	a.Elems = append(append([]Value(nil), args[1:]...), a.Elems...)
	return float64(len(a.Elems)), nil
}

// stdSlice handles both arrays and strings: slice(x, start[, end]).
func stdSlice(_ *interp, args []Value) (Value, error) {
	start64, err := numArg(args, 1, "slice")
	if err != nil {
		return nil, err
	}
	switch x := arg(args, 0).(type) {
	case *Array:
		start, end := sliceBounds(len(x.Elems), start64, arg(args, 2))
		out := make([]Value, end-start)
		copy(out, x.Elems[start:end])
		return &Array{Elems: out}, nil
	case string:
		start, end := sliceBounds(len(x), start64, arg(args, 2))
		return x[start:end], nil
	default:
		return nil, fmt.Errorf("slice: argument 1 must be array or string, got %s", TypeName(x))
	}
}

func sliceBounds(n int, start64 float64, endArg Value) (int, int) {
	end64 := float64(n)
	if e, ok := endArg.(float64); ok {
		end64 = e
	}
	// Clamp in float: converting first wraps 1e300 to a negative int.
	clamp := func(x float64) int {
		if x = math.Trunc(x); x < 0 {
			x += float64(n)
		}
		if !(x > 0) { // NaN too
			return 0
		}
		return int(min(x, float64(n)))
	}
	start := clamp(start64)
	return start, max(clamp(end64), start)
}

func stdConcat(_ *interp, args []Value) (Value, error) {
	out := &Array{}
	for i := range args {
		a, err := arrArg(args, i, "concat")
		if err != nil {
			return nil, err
		}
		out.Elems = append(out.Elems, a.Elems...)
	}
	return out, nil
}

// search is a builtin named name that looks for its second argument in an
// array or string and reports the index it found, or -1, through found:
// index_of and contains.
func search(name string, found func(i int) Value) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		switch x := arg(args, 0).(type) {
		case *Array:
			return found(slices.IndexFunc(x.Elems, func(e Value) bool { return valuesEqual(e, arg(args, 1)) })), nil
		case string:
			sub, err := strArg(args, 1, name)
			return found(strings.Index(x, sub)), err
		default:
			return nil, fmt.Errorf("%s: argument 1 must be array or string, got %s", name, TypeName(x))
		}
	}
}

func stdReverse(_ *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "reverse")
	if err != nil {
		return nil, err
	}
	for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
		a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
	}
	return a, nil
}

// stdSort sorts an array of numbers or strings in place.
func stdSort(_ *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "sort")
	if err != nil {
		return nil, err
	}
	var sortErr error
	sort.SliceStable(a.Elems, func(i, j int) bool {
		xi, oki := a.Elems[i].(float64)
		xj, okj := a.Elems[j].(float64)
		if oki && okj {
			return xi < xj
		}
		si, oki := a.Elems[i].(string)
		sj, okj := a.Elems[j].(string)
		if oki && okj {
			return si < sj
		}
		sortErr = errors.New("sort: array must contain only numbers or only strings")
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	return a, nil
}

func stdRange(_ *interp, args []Value) (Value, error) {
	n, err := numArg(args, 0, "range")
	if err != nil {
		return nil, err
	}
	if !(n >= 0 && n <= maxArrayLen) { // NaN fails both
		return nil, fmt.Errorf("range: bad length %v", n)
	}
	out := &Array{Elems: make([]Value, int(n))}
	for i := range out.Elems {
		out.Elems[i] = float64(i)
	}
	return out, nil
}

// listFields is a builtin named name that lists what at reads from each of
// an object's fields, in key order: keys and values.
func listFields(name string, at func(o *Object, key string) Value) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, fmt.Errorf("%s: argument must be an object, got %s", name, TypeName(arg(args, 0)))
		}
		out := &Array{}
		for _, k := range o.SortedKeys() {
			out.Elems = append(out.Elems, at(o, k))
		}
		return out, nil
	}
}

// keyOp is a builtin named name that applies f to an object and a key: has
// and remove.
func keyOp[R Value](name string, f func(o *Object, key string) R) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		o, ok := arg(args, 0).(*Object)
		if !ok {
			return nil, fmt.Errorf("%s: argument must be an object, got %s", name, TypeName(arg(args, 0)))
		}
		key, err := strArg(args, 1, name)
		if err != nil {
			return nil, err
		}
		return f(o, key), nil
	}
}

// fold is a variadic numeric builtin named name that folds its arguments
// with f: min and max.
func fold(name string, f func(a, b float64) float64) builtinFunc {
	return func(_ *interp, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("%s: need at least one argument", name)
		}
		best, err := numArg(args, 0, name)
		for i := 1; i < len(args) && err == nil; i++ {
			var n float64
			n, err = numArg(args, i, name)
			best = f(best, n)
		}
		return best, err
	}
}

func stdSubstr(_ *interp, args []Value) (Value, error) {
	s, err := strArg(args, 0, "substr")
	if err != nil {
		return nil, err
	}
	start, err := numArg(args, 1, "substr")
	if err != nil {
		return nil, err
	}
	lo, hi := sliceBounds(len(s), start, arg(args, 2))
	return s[lo:hi], nil
}

func stdSplit(_ *interp, args []Value) (Value, error) {
	s, err := strArg(args, 0, "split")
	if err != nil {
		return nil, err
	}
	sep, err := strArg(args, 1, "split")
	if err != nil {
		return nil, err
	}
	parts := strings.Split(s, sep)
	out := &Array{Elems: make([]Value, len(parts))}
	for i, p := range parts {
		out.Elems[i] = p
	}
	return out, nil
}

// stdJoin renders the array's elements between separators. It is priced by
// the elements it reads, and the rendering stops at what is left of the
// memory budget, like str's.
func stdJoin(in *interp, args []Value) (Value, error) {
	a, err := arrArg(args, 0, "join")
	if err != nil {
		return nil, err
	}
	sep, err := strArg(args, 1, "join")
	if err != nil {
		return nil, err
	}
	left := in.memLeft()
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		if parts[i], err = StringifyMax(e, left); err != nil {
			return nil, in.memBreach("join", err)
		}
		if left >= 0 {
			if left -= len(parts[i]) + len(sep); left < 0 {
				return nil, in.memBreach("join", ErrTooLong)
			}
		}
	}
	return strings.Join(parts, sep), nil
}

// stdJSONEncode renders its argument as JSON. It costs no steps beyond its
// call's: the encoding stops at what is left of the memory budget, like
// str's.
func stdJSONEncode(in *interp, args []Value) (Value, error) {
	var e JSONEncoder
	if left := in.memLeft(); left >= 0 {
		e.over = left + 1
	}
	data, err := e.value(nil, arg(args, 0), 0, "")
	if err != nil {
		return nil, in.memBreach("json_encode", err)
	}
	return string(data), nil
}

func stdJSONDecode(_ *interp, args []Value) (Value, error) {
	s, err := strArg(args, 0, "json_decode")
	if err != nil {
		return nil, err
	}
	v, err := ParseJSON([]byte(s))
	if err != nil {
		return nil, fmt.Errorf("json_decode: %w", err)
	}
	return v, nil
}
