package script

import (
	"fmt"
	"strings"
)

// This file is the single source of truth for the callable surface a module
// script sees: the Table-1 host API bound by the device runtime
// (internal/device), merged with the signatures of stdlib.go's builtin
// table. The static analyzer (analyze.go) checks call sites against it at
// deploy time, and the device runtime validates live arguments with
// CheckHostArgs — one table, so the two layers cannot drift apart.

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
	// Writes is the 1-based position of the argument the call changes in
	// place (0: none) — a container write for the read-only verdict
	// (resolve.go) — and Aliases says the call also returns that argument.
	Writes  int
	Aliases bool
	// Lends is the 1-based position of an argument the call only borrows
	// (0: none): it keeps nothing of the object passed there, nor the object
	// itself, once it returns, except by handing it back in its result. An
	// object literal written straight into that position is therefore
	// evaluated into a scratch object the call site reuses (interp.go,
	// callLent) instead of a new one per call. A host function bound under
	// such a name keeps to this: the device's call_module copies the message
	// (deliverLocal) or encodes it (deliverRemote), and its call_service
	// lends it to a co-located handler only until the handler returns
	// (services.Request) or encodes it for a remote one. A binding that
	// keeps the object must clone it.
	Lends int
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
	// call_service lends its message to the handler with frame_ref taken
	// out, and puts it back.
	"call_service": {Name: "call_service", Min: 1, Max: 2, Params: []Param{
		{Name: "service name", Type: "string"}, {Name: "message", Type: "object"}}, Writes: 2, Lends: 2},
	"call_module": {Name: "call_module", Min: 1, Max: 2, Params: []Param{
		{Name: "module name", Type: "string"}, {Name: "message", Type: "object"}}, Lends: 2},
	"metric": {Name: "metric", Min: 2, Max: 2, Params: []Param{
		{Name: "name", Type: "string"}, {Name: "value", Type: "number"}}},
	"log":         {Name: "log", Min: 0, Max: -1},
	"now_ms":      {Name: "now_ms", Min: 0, Max: 0},
	"frame_done":  {Name: "frame_done", Min: 0, Max: 0},
	"device_name": {Name: "device_name", Min: 0, Max: 0},

	// Lifecycle callbacks the runtime calls into the module. Min/Max bound
	// the declared parameter count (event_received receives one message).
	"init":           {Name: "init", Min: 0, Max: 0, Callback: true},
	"event_received": {Name: "event_received", Min: 0, Max: 1, Callback: true},
}

func sig1(p Param) Signature {
	return Signature{Min: 1, Max: 1, Params: []Param{p}}
}

func sig2(a, b Param) Signature {
	return Signature{Min: 2, Max: 2, Params: []Param{a, b}}
}

// callSignatures is the merged table every static pass resolves call sites
// against, keyed by global name and including Callback entries for init and
// event_received. Host bindings win over same-named builtins ("log"),
// matching the bind order in the device runtime: stdlib first, host API
// after. The map is shared; nothing may mutate it.
var callSignatures = func() map[string]Signature {
	merged := make(map[string]Signature, len(builtins)+len(hostSignatureTable))
	for name, b := range builtins {
		s := b.sig
		s.Name = name
		merged[name] = s
	}
	for name, s := range hostSignatureTable {
		merged[name] = s
	}
	return merged
}()
