package script

import (
	"errors"
	"fmt"
	"time"
)

// Sandbox resource governance (heka-style instruction/memory/output limits
// plus a goagent-style wall-clock backstop). A Context carries a Limits
// set; every Load/Eval/Call meters itself against it and aborts the
// invocation with a *BudgetError on breach. Limits are per invocation —
// one event, one init() run, one top-level load — so a breach costs the
// offending handler its event, never the whole module lifetime.

// Resource names carried by BudgetError, and used as breach-meter labels.
const (
	// ResourceInstructions is the interpreter-step budget (the same counter
	// LastInstructions reports and pipecost bounds statically).
	ResourceInstructions = "instructions"
	// ResourceMemory is the value-allocation budget in (approximate) bytes.
	ResourceMemory = "memory"
	// ResourceOutput is the host-emit budget (call_module / call_service /
	// log payload bytes), enforced by the module runtime.
	ResourceOutput = "output"
	// ResourceTimeout is the wall-clock backstop, excluding host-call time.
	ResourceTimeout = "timeout"
)

// Limits is one module's resource budget. Zero fields are unlimited at
// the script layer; the core runtime resolves cluster-wide defaults before
// a module spawns, so deployed contexts always run fully bounded
// (deny-by-default), while embedders and tests keep the permissive zero
// value.
type Limits struct {
	// Instructions bounds interpreter steps per event invocation. It must
	// not exceed the hard ceiling DefaultMaxSteps to be effective.
	Instructions int64
	// InitInstructions bounds steps for init() and top-level load; zero
	// falls back to Instructions.
	InitInstructions int64
	// Memory bounds bytes of script-value allocation per invocation. The
	// accounting is an estimate of allocation volume (strings by length,
	// arrays and objects by slot count), charged at every construction
	// site — literals, concatenation, array growth, builtin and host-call
	// results — not a byte-exact heap measure.
	Memory int64
	// Output bounds bytes emitted through the host API per event.
	Output int64
	// Timeout bounds one invocation's wall-clock script time, excluding
	// time spent inside host calls (a slow service must not breach the
	// module that called it).
	Timeout time.Duration
}

// Bounded reports whether any budget is set.
func (l Limits) Bounded() bool {
	return l.Instructions > 0 || l.InitInstructions > 0 || l.Memory > 0 ||
		l.Output > 0 || l.Timeout > 0
}

// BudgetError is a resource-budget breach. It aborts the invocation that
// overran and is deliberately not catchable by script try/catch — a
// runaway loop inside try{} must not be able to swallow its own abort.
type BudgetError struct {
	// Resource is one of the Resource* constants.
	Resource string
	// Limit is the configured budget; Used is the consumption that tripped
	// it (instructions, bytes, or milliseconds for ResourceTimeout).
	Limit int64
	Used  int64
	// Pos locates the script position at the moment of the breach (zero
	// for breaches raised outside the interpreter loop, e.g. output).
	Pos Position
}

// Error satisfies the error interface.
func (e *BudgetError) Error() string {
	unit := ""
	switch e.Resource {
	case ResourceMemory, ResourceOutput:
		unit = " bytes"
	case ResourceTimeout:
		unit = " ms"
	}
	if e.Pos != (Position{}) {
		return fmt.Sprintf("script: %s budget exceeded at %s: used %d of %d%s",
			e.Resource, e.Pos, e.Used, e.Limit, unit)
	}
	return fmt.Sprintf("script: %s budget exceeded: used %d of %d%s",
		e.Resource, e.Used, e.Limit, unit)
}

// SetLimits installs the resource budget enforced on every subsequent
// Load, Eval and Call.
func (c *Context) SetLimits(l Limits) { c.limits = l }

// Limits returns the context's current resource budget.
func (c *Context) Limits() Limits { return c.limits }

// PreservationVersionGlobal is the global a module declares to version its
// preserved state (heka's _PRESERVATION_VERSION): a snapshot restores into
// a fresh context only when both sides agree on the version. Undeclared
// means version 0.
const PreservationVersionGlobal = "_PRESERVATION_VERSION"

// PreservationVersion reads the module-declared state version: the numeric
// value of _PRESERVATION_VERSION, or 0 when unset or non-numeric. Constant
// declarations count — the version is metadata, not mutable state.
func (c *Context) PreservationVersion() int64 {
	if g, ok := c.globals[PreservationVersionGlobal]; ok && g.isNum {
		return int64(g.num)
	}
	return 0
}

// sizeEstimate is the memory-accounting charge for one constructed value:
// strings by length, containers by slot count. Shallow — elements were
// charged at their own construction sites.
func sizeEstimate(v Value) int64 {
	switch x := v.(type) {
	case string:
		return int64(len(x)) + 16
	case *Array:
		return 24 + 16*int64(len(x.Elems))
	case *Object:
		return 48 + 32*int64(len(x.Fields))
	case *Function:
		return 64
	default:
		return 0
	}
}

// ErrTooLong is what the bounded writers (StringifyMax, json_encode under a
// memory budget) return once their output passes the bound. Callers turn it
// into the BudgetError of the resource they were metering.
var ErrTooLong = errors.New("script: output exceeds the budget")

// PayloadSize is the output-budget charge for emitting v through
// call_module or call_service: strings by length, scalars by word,
// containers by per-slot overhead plus contents, functions nothing (they do
// not travel). It reads the value itself, before anything is copied or
// encoded, and stops as soon as the total passes max (max < 0: never),
// returning some total above max: a value that shares substructure is
// charged once per path, which is what emitting it would cost, and the walk
// is what keeps that cost from being paid first and noticed afterwards. It
// fails only on a value nested deeper than MaxDepth.
func PayloadSize(v Value, max int64) (int64, error) {
	w := sizeWalk{max: max}
	err := w.add(v, 0)
	return w.n, err
}

type sizeWalk struct{ n, max int64 }

func (w *sizeWalk) over() bool { return w.max >= 0 && w.n > w.max }

func (w *sizeWalk) add(v Value, depth int) error {
	switch x := v.(type) {
	case string:
		w.n += int64(len(x)) + 16
	case bool, float64:
		w.n += 8
	case *Array:
		if depth >= MaxDepth {
			return errTooDeep
		}
		w.n += 24
		for _, e := range x.Elems {
			w.n += 16
			if err := w.add(e, depth+1); err != nil || w.over() {
				return err
			}
		}
	case *Object:
		if depth >= MaxDepth {
			return errTooDeep
		}
		w.n += 48
		for k, e := range x.Fields {
			w.n += 16 + int64(len(k))
			if err := w.add(e, depth+1); err != nil || w.over() {
				return err
			}
		}
	}
	return nil
}
