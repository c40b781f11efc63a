package script

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// builtins is the builtin function library every context starts with. The
// set mirrors the helpers the paper's JavaScript modules would reach for:
// array and object manipulation, math, strings and JSON. The functions are
// stateless, so one table serves every context; the three whose output can
// outgrow their input (str, join, json_encode) are bound per context by
// installStdlib, because they write against the running invocation's memory
// budget.
var builtins = map[string]HostFunc{
	// ---- general ----
	"len":    stdLen,
	"num":    stdNum,
	"is_nan": func(a []Value) (Value, error) { n, ok := arg(a, 0).(float64); return ok && math.IsNaN(n), nil },

	// ---- arrays ----
	"push":     stdPush,
	"pop":      stdPop,
	"shift":    stdShift,
	"unshift":  stdUnshift,
	"slice":    stdSlice,
	"concat":   stdConcat,
	"index_of": stdIndexOf,
	"reverse":  stdReverse,
	"sort":     stdSort,
	"range":    stdRange,

	// ---- objects ----
	"keys":   stdKeys,
	"values": stdValues,
	"has":    stdHas,
	"remove": stdRemove,

	// ---- math ----
	"abs":   math1(math.Abs),
	"floor": math1(math.Floor),
	"ceil":  math1(math.Ceil),
	"round": math1(math.Round),
	"sqrt":  math1(math.Sqrt),
	"exp":   math1(math.Exp),
	"log":   math1(math.Log),
	"sin":   math1(math.Sin),
	"cos":   math1(math.Cos),
	"atan2": math2(math.Atan2),
	"pow":   math2(math.Pow),
	"min":   stdMin,
	"max":   stdMax,

	// ---- strings ----
	"substr":      stdSubstr,
	"split":       stdSplit,
	"upper":       func(a []Value) (Value, error) { s, err := strArg(a, 0, "upper"); return strings.ToUpper(s), err },
	"lower":       func(a []Value) (Value, error) { s, err := strArg(a, 0, "lower"); return strings.ToLower(s), err },
	"trim":        func(a []Value) (Value, error) { s, err := strArg(a, 0, "trim"); return strings.TrimSpace(s), err },
	"contains":    stdContains,
	"starts_with": stdStartsWith,
	"ends_with":   stdEndsWith,

	// ---- JSON ----
	"json_decode": stdJSONDecode,
}

// installStdlib binds the builtins as globals of c.
func installStdlib(c *Context) {
	for name, fn := range builtins {
		c.Bind(name, fn)
	}
	c.Bind("str", c.stdStr)
	c.Bind("join", c.stdJoin)
	c.Bind("json_encode", c.stdJSONEncode)
}

// memLeft is how many more bytes the running invocation may allocate, or
// -1 when memory is not limited (or nothing is running: a builtin called
// from Go).
func (c *Context) memLeft() int {
	if in := c.running; in != nil && in.memLimit > 0 {
		return int(max(in.memLimit-in.memUsed, 0))
	}
	return -1
}

// memBreach turns a builtin's ErrTooLong — it stopped writing at memLeft —
// into the memory-budget breach it stands for; any other error passes
// through prefixed with the builtin's name.
func (c *Context) memBreach(fn string, err error) error {
	if err == ErrTooLong {
		return c.running.charge(int64(c.memLeft())+1, Position{})
	}
	return fmt.Errorf("%s: %w", fn, err)
}

func (c *Context) stdStr(args []Value) (Value, error) {
	s, err := StringifyMax(arg(args, 0), c.memLeft())
	if err == ErrTooLong {
		err = c.memBreach("str", err)
	}
	return s, err
}

func arg(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return nil
}

func numArg(args []Value, i int, fn string) (float64, error) {
	n, ok := arg(args, i).(float64)
	if !ok {
		return 0, fmt.Errorf("%s: argument %d must be a number, got %s", fn, i+1, TypeName(arg(args, i)))
	}
	return n, nil
}

func strArg(args []Value, i int, fn string) (string, error) {
	s, ok := arg(args, i).(string)
	if !ok {
		return "", fmt.Errorf("%s: argument %d must be a string, got %s", fn, i+1, TypeName(arg(args, i)))
	}
	return s, nil
}

func arrArg(args []Value, i int, fn string) (*Array, error) {
	a, ok := arg(args, i).(*Array)
	if !ok {
		return nil, fmt.Errorf("%s: argument %d must be an array, got %s", fn, i+1, TypeName(arg(args, i)))
	}
	return a, nil
}

func math1(f func(float64) float64) HostFunc {
	return func(args []Value) (Value, error) {
		n, err := numArg(args, 0, "math builtin")
		if err != nil {
			return nil, err
		}
		return f(n), nil
	}
}

func math2(f func(a, b float64) float64) HostFunc {
	return func(args []Value) (Value, error) {
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

func stdLen(args []Value) (Value, error) {
	switch x := arg(args, 0).(type) {
	case string:
		return float64(len(x)), nil
	case *Array:
		return float64(len(x.Elems)), nil
	case *Object:
		return float64(len(x.Fields)), nil
	case nil:
		return float64(0), nil
	default:
		return nil, fmt.Errorf("len: unsupported type %s", TypeName(x))
	}
}

func stdNum(args []Value) (Value, error) {
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

func stdPush(args []Value) (Value, error) {
	a, err := arrArg(args, 0, "push")
	if err != nil {
		return nil, err
	}
	a.Elems = append(a.Elems, args[1:]...)
	return float64(len(a.Elems)), nil
}

func stdPop(args []Value) (Value, error) {
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

func stdShift(args []Value) (Value, error) {
	a, err := arrArg(args, 0, "shift")
	if err != nil {
		return nil, err
	}
	if len(a.Elems) == 0 {
		return nil, nil
	}
	v := a.Elems[0]
	a.Elems = append([]Value(nil), a.Elems[1:]...)
	return v, nil
}

func stdUnshift(args []Value) (Value, error) {
	a, err := arrArg(args, 0, "unshift")
	if err != nil {
		return nil, err
	}
	a.Elems = append(append([]Value(nil), args[1:]...), a.Elems...)
	return float64(len(a.Elems)), nil
}

// stdSlice handles both arrays and strings: slice(x, start[, end]).
func stdSlice(args []Value) (Value, error) {
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
	start := int(start64)
	if start < 0 {
		start += n
	}
	if start < 0 {
		start = 0
	}
	if start > n {
		start = n
	}
	end := n
	if e, ok := endArg.(float64); ok {
		end = int(e)
		if end < 0 {
			end += n
		}
	}
	if end > n {
		end = n
	}
	if end < start {
		end = start
	}
	return start, end
}

func stdConcat(args []Value) (Value, error) {
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

func stdIndexOf(args []Value) (Value, error) {
	switch x := arg(args, 0).(type) {
	case *Array:
		for i, e := range x.Elems {
			if valuesEqual(e, arg(args, 1)) {
				return float64(i), nil
			}
		}
		return float64(-1), nil
	case string:
		sub, err := strArg(args, 1, "index_of")
		if err != nil {
			return nil, err
		}
		return float64(strings.Index(x, sub)), nil
	default:
		return nil, fmt.Errorf("index_of: argument 1 must be array or string, got %s", TypeName(x))
	}
}

func stdReverse(args []Value) (Value, error) {
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
func stdSort(args []Value) (Value, error) {
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

func stdRange(args []Value) (Value, error) {
	n, err := numArg(args, 0, "range")
	if err != nil {
		return nil, err
	}
	if n < 0 || n > maxArrayLen {
		return nil, fmt.Errorf("range: bad length %v", n)
	}
	out := &Array{Elems: make([]Value, int(n))}
	for i := range out.Elems {
		out.Elems[i] = float64(i)
	}
	return out, nil
}

func stdKeys(args []Value) (Value, error) {
	o, ok := arg(args, 0).(*Object)
	if !ok {
		return nil, fmt.Errorf("keys: argument must be an object, got %s", TypeName(arg(args, 0)))
	}
	out := &Array{}
	for _, k := range o.SortedKeys() {
		out.Elems = append(out.Elems, k)
	}
	return out, nil
}

func stdValues(args []Value) (Value, error) {
	o, ok := arg(args, 0).(*Object)
	if !ok {
		return nil, fmt.Errorf("values: argument must be an object, got %s", TypeName(arg(args, 0)))
	}
	out := &Array{}
	for _, k := range o.SortedKeys() {
		out.Elems = append(out.Elems, o.Fields[k])
	}
	return out, nil
}

func stdHas(args []Value) (Value, error) {
	o, ok := arg(args, 0).(*Object)
	if !ok {
		return nil, fmt.Errorf("has: argument must be an object, got %s", TypeName(arg(args, 0)))
	}
	key, err := strArg(args, 1, "has")
	if err != nil {
		return nil, err
	}
	_, found := o.Fields[key]
	return found, nil
}

func stdRemove(args []Value) (Value, error) {
	o, ok := arg(args, 0).(*Object)
	if !ok {
		return nil, fmt.Errorf("remove: argument must be an object, got %s", TypeName(arg(args, 0)))
	}
	key, err := strArg(args, 1, "remove")
	if err != nil {
		return nil, err
	}
	_, found := o.Fields[key]
	delete(o.Fields, key)
	return found, nil
}

func stdMin(args []Value) (Value, error) {
	if len(args) == 0 {
		return nil, errors.New("min: need at least one argument")
	}
	best, err := numArg(args, 0, "min")
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(args); i++ {
		n, err := numArg(args, i, "min")
		if err != nil {
			return nil, err
		}
		best = math.Min(best, n)
	}
	return best, nil
}

func stdMax(args []Value) (Value, error) {
	if len(args) == 0 {
		return nil, errors.New("max: need at least one argument")
	}
	best, err := numArg(args, 0, "max")
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(args); i++ {
		n, err := numArg(args, i, "max")
		if err != nil {
			return nil, err
		}
		best = math.Max(best, n)
	}
	return best, nil
}

func stdSubstr(args []Value) (Value, error) {
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

func stdSplit(args []Value) (Value, error) {
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

func (c *Context) stdJoin(args []Value) (Value, error) {
	a, err := arrArg(args, 0, "join")
	if err != nil {
		return nil, err
	}
	sep, err := strArg(args, 1, "join")
	if err != nil {
		return nil, err
	}
	left := c.memLeft()
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		if parts[i], err = StringifyMax(e, left); err != nil {
			return nil, c.memBreach("join", err)
		}
		if left >= 0 {
			if left -= len(parts[i]) + len(sep); left < 0 {
				return nil, c.memBreach("join", ErrTooLong)
			}
		}
	}
	return strings.Join(parts, sep), nil
}

func stdContains(args []Value) (Value, error) {
	switch x := arg(args, 0).(type) {
	case string:
		sub, err := strArg(args, 1, "contains")
		if err != nil {
			return nil, err
		}
		return strings.Contains(x, sub), nil
	case *Array:
		for _, e := range x.Elems {
			if valuesEqual(e, arg(args, 1)) {
				return true, nil
			}
		}
		return false, nil
	default:
		return nil, fmt.Errorf("contains: argument 1 must be string or array, got %s", TypeName(x))
	}
}

func stdStartsWith(args []Value) (Value, error) {
	s, err := strArg(args, 0, "starts_with")
	if err != nil {
		return nil, err
	}
	prefix, err := strArg(args, 1, "starts_with")
	if err != nil {
		return nil, err
	}
	return strings.HasPrefix(s, prefix), nil
}

func stdEndsWith(args []Value) (Value, error) {
	s, err := strArg(args, 0, "ends_with")
	if err != nil {
		return nil, err
	}
	suffix, err := strArg(args, 1, "ends_with")
	if err != nil {
		return nil, err
	}
	return strings.HasSuffix(s, suffix), nil
}

func (c *Context) stdJSONEncode(args []Value) (Value, error) {
	var e JSONEncoder
	if left := c.memLeft(); left >= 0 {
		e.over = left + 1
	}
	data, err := e.value(nil, arg(args, 0), 0, "")
	if err != nil {
		return nil, c.memBreach("json_encode", err)
	}
	return string(data), nil
}

func stdJSONDecode(args []Value) (Value, error) {
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
