package script

import (
	"fmt"
	"strings"
)

// This file is the single source of truth for the callable surface a module
// script sees: the Table-1 host API bound by the device runtime
// (internal/device) and the builtins installed by stdlib.go. The static
// analyzer (analyze.go) checks call sites against this table at deploy time,
// and the device runtime validates live arguments with CheckHostArgs — one
// table, so the two layers cannot drift apart.

// Param describes one declared parameter of a host binding or builtin.
type Param struct {
	// Name is the parameter's documentation name, used in error messages.
	Name string
	// Type constrains the argument: "string", "number", "boolean", "array",
	// "object", "function", "null", or "any". Alternatives are separated
	// by "|".
	Type string
}

// Signature declares the arity and argument types of a callable host
// binding, stdlib builtin, or module lifecycle callback.
type Signature struct {
	// Name is the global identifier the callable is bound under.
	Name string
	// Min and Max bound the argument count; Max < 0 means variadic.
	Min, Max int
	// Params types the leading arguments. Arguments beyond len(Params)
	// fall back to Rest.
	Params []Param
	// Rest, when non-empty, types every argument past len(Params).
	Rest string
	// Callback marks module lifecycle functions (init, event_received)
	// that the runtime calls into the script; for callbacks Min/Max bound
	// the declared parameter count rather than call-site arguments.
	Callback bool
	// Cost is the pipecost planner weight of one invocation, in abstract
	// instruction units comparable to interpreter steps. Zero means the
	// default (1): the call runs in Go and is roughly as cheap as one
	// interpreted instruction.
	Cost int64
	// Symbolic marks host calls whose true cost lives outside the script —
	// DNN-backed service invocations whose latency the planner must model
	// separately. Cost is then a coarse stand-in, and the cost-aware
	// planner counts symbolic stages when sizing flow-control credits.
	Symbolic bool
}

// Check validates live call arguments against the signature. Error text
// mirrors the historical host-API style: "call_service: service name must
// be a string, got number".
func (s Signature) Check(args []Value) error {
	if len(args) < s.Min {
		if len(s.Params) > len(args) {
			return fmt.Errorf("%s: missing %s", s.Name, s.Params[len(args)].Name)
		}
		return fmt.Errorf("%s: need at least %d arguments, got %d", s.Name, s.Min, len(args))
	}
	if s.Max >= 0 && len(args) > s.Max {
		return fmt.Errorf("%s: too many arguments (%d, max %d)", s.Name, len(args), s.Max)
	}
	for i, arg := range args {
		var want string
		if i < len(s.Params) {
			want = s.Params[i].Type
		} else {
			want = s.Rest
		}
		if want == "" || want == "any" {
			continue
		}
		if arg == nil && i >= s.Min {
			continue // optional arguments accept null
		}
		if !typeAllowed(want, TypeName(arg)) {
			name := fmt.Sprintf("argument %d", i+1)
			if i < len(s.Params) {
				name = s.Params[i].Name
			}
			return fmt.Errorf("%s: %s must be %s, got %s", s.Name, name, withArticle(want), TypeName(arg))
		}
	}
	return nil
}

// withArticle prefixes a type constraint with a/an for error messages.
func withArticle(spec string) string {
	if strings.ContainsAny(spec[:1], "aeiou") {
		return "an " + spec
	}
	return "a " + spec
}

// typeAllowed reports whether the actual runtime type satisfies a
// "|"-separated type constraint.
func typeAllowed(spec, actual string) bool {
	for spec != "" {
		var alt string
		alt, spec, _ = strings.Cut(spec, "|")
		if alt == "any" || alt == actual {
			return true
		}
	}
	return false
}

// CheckHostArgs validates args against the named host binding's declared
// signature. Unknown names pass: the caller may bind extras beyond Table 1.
func CheckHostArgs(name string, args []Value) error {
	sig, ok := hostSignatureTable[name]
	if !ok || sig.Callback {
		return nil
	}
	return sig.Check(args)
}

// HostSignature returns the declared signature of a Table-1 host binding or
// module lifecycle callback.
func HostSignature(name string) (Signature, bool) {
	s, ok := hostSignatureTable[name]
	return s, ok
}

// hostSignatureTable declares the bindings installed by the device runtime
// (internal/device.bindHostAPI) plus the lifecycle callbacks it invokes.
var hostSignatureTable = map[string]Signature{
	"call_service": {Name: "call_service", Min: 1, Max: 2, Params: []Param{
		{Name: "service name", Type: "string"}, {Name: "message", Type: "object"}},
		Cost: 25_000, Symbolic: true},
	"call_module": {Name: "call_module", Min: 1, Max: 2, Params: []Param{
		{Name: "module name", Type: "string"}, {Name: "message", Type: "object"}},
		Cost: 500},
	"metric": {Name: "metric", Min: 2, Max: 2, Params: []Param{
		{Name: "name", Type: "string"}, {Name: "value", Type: "number"}},
		Cost: 20},
	"log":         {Name: "log", Min: 0, Max: -1, Cost: 20},
	"now_ms":      {Name: "now_ms", Min: 0, Max: 0, Cost: 5},
	"frame_done":  {Name: "frame_done", Min: 0, Max: 0, Cost: 5},
	"device_name": {Name: "device_name", Min: 0, Max: 0, Cost: 5},

	// Lifecycle callbacks the runtime calls into the module. Min/Max bound
	// the declared parameter count (event_received receives one message).
	"init":           {Name: "init", Min: 0, Max: 0, Callback: true},
	"event_received": {Name: "event_received", Min: 0, Max: 1, Callback: true},
}

// builtinSignatureTable declares the stdlib.go builtins. Types follow the
// runtime coercions exactly: e.g. len accepts strings, arrays, objects and
// null; slice's optional end argument is a number.
var builtinSignatureTable = map[string]Signature{
	"len":    sig1("len", Param{"value", "string|array|object|null"}),
	"str":    sig1("str", Param{"value", "any"}),
	"num":    sig1("num", Param{"value", "any"}),
	"is_nan": sig1("is_nan", Param{"value", "any"}),

	"push":    {Name: "push", Min: 1, Max: -1, Params: []Param{{"array", "array"}}, Rest: "any"},
	"pop":     sig1("pop", Param{"array", "array"}),
	"shift":   sig1("shift", Param{"array", "array"}),
	"unshift": {Name: "unshift", Min: 1, Max: -1, Params: []Param{{"array", "array"}}, Rest: "any"},
	"slice": {Name: "slice", Min: 2, Max: 3, Params: []Param{
		{"value", "array|string"}, {"start", "number"}, {"end", "number"}}},
	"concat":   {Name: "concat", Min: 0, Max: -1, Rest: "array"},
	"index_of": sig2("index_of", Param{"value", "array|string"}, Param{"needle", "any"}),
	"reverse":  sig1("reverse", Param{"array", "array"}),
	"sort":     costed(sig1("sort", Param{"array", "array"}), 25),
	"range":    sig1("range", Param{"n", "number"}),

	"keys":   sig1("keys", Param{"object", "object"}),
	"values": sig1("values", Param{"object", "object"}),
	"has":    sig2("has", Param{"object", "object"}, Param{"key", "string"}),
	"remove": sig2("remove", Param{"object", "object"}, Param{"key", "string"}),

	"abs":   sig1("abs", Param{"x", "number"}),
	"floor": sig1("floor", Param{"x", "number"}),
	"ceil":  sig1("ceil", Param{"x", "number"}),
	"round": sig1("round", Param{"x", "number"}),
	"sqrt":  sig1("sqrt", Param{"x", "number"}),
	"exp":   sig1("exp", Param{"x", "number"}),
	"log":   sig1("log", Param{"x", "number"}),
	"sin":   sig1("sin", Param{"x", "number"}),
	"cos":   sig1("cos", Param{"x", "number"}),
	"atan2": sig2("atan2", Param{"y", "number"}, Param{"x", "number"}),
	"pow":   sig2("pow", Param{"base", "number"}, Param{"exp", "number"}),
	"min":   {Name: "min", Min: 1, Max: -1, Rest: "number"},
	"max":   {Name: "max", Min: 1, Max: -1, Rest: "number"},

	"substr": {Name: "substr", Min: 2, Max: 3, Params: []Param{
		{"string", "string"}, {"start", "number"}, {"end", "number"}}},
	"split":       sig2("split", Param{"string", "string"}, Param{"separator", "string"}),
	"join":        sig2("join", Param{"array", "array"}, Param{"separator", "string"}),
	"upper":       sig1("upper", Param{"string", "string"}),
	"lower":       sig1("lower", Param{"string", "string"}),
	"trim":        sig1("trim", Param{"string", "string"}),
	"contains":    sig2("contains", Param{"value", "string|array"}, Param{"needle", "any"}),
	"starts_with": sig2("starts_with", Param{"string", "string"}, Param{"prefix", "string"}),
	"ends_with":   sig2("ends_with", Param{"string", "string"}, Param{"suffix", "string"}),

	"json_encode": costed(sig1("json_encode", Param{"value", "any"}), 50),
	"json_decode": costed(sig1("json_decode", Param{"text", "string"}), 50),
}

// costed overrides a builtin signature's pipecost planner weight; builtins
// without an override default to cost 1.
func costed(s Signature, cost int64) Signature {
	s.Cost = cost
	return s
}

func sig1(name string, p Param) Signature {
	return Signature{Name: name, Min: 1, Max: 1, Params: []Param{p}}
}

func sig2(name string, a, b Param) Signature {
	return Signature{Name: name, Min: 2, Max: 2, Params: []Param{a, b}}
}

// callSignatures is the merged table the analyzer resolves call sites
// against. Host bindings win over same-named builtins ("log"), matching the
// bind order in the device runtime: stdlib first, host API after.
var callSignatures = func() map[string]Signature {
	merged := make(map[string]Signature, len(builtinSignatureTable)+len(hostSignatureTable))
	for name, s := range builtinSignatureTable {
		merged[name] = s
	}
	for name, s := range hostSignatureTable {
		merged[name] = s
	}
	return merged
}()

// CallSignatures returns the merged host+builtin signature table keyed by
// global name, including Callback entries for init and event_received. The
// map is shared; callers must not mutate it.
func CallSignatures() map[string]Signature { return callSignatures }
