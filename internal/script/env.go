package script

import (
	"fmt"
	"math"
)

// RuntimeError is a script execution failure (including uncaught script
// throws) with the source position where it occurred.
type RuntimeError struct {
	Pos Position
	Msg string
	// Thrown holds the script value for errors raised by throw statements;
	// nil for interpreter-generated errors.
	Thrown Value
}

// Error satisfies the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("script: runtime error at %s: %s", e.Pos, e.Msg)
}

// cell is the interpreter's internal form of a Value: what a variable slot
// holds and what every expression evaluates to. A number travels unboxed in
// num, so arithmetic and counted loops never touch the heap; everything else
// is the Value itself in ref. The zero cell is null.
//
// A number cell may also carry its boxed form in ref — the literal's
// one-time box, or the interface a number arrived in from an array, object or
// host call — so that handing it back out as a Value allocates nothing.
// Numbers computed by the interpreter have no box until value() makes one.
type cell struct {
	num   float64
	ref   Value
	isNum bool
}

func numCell(n float64) cell { return cell{num: n, isNum: true} }

// cellOf unboxes a Value arriving from outside the evaluator.
func cellOf(v Value) cell {
	if n, ok := v.(float64); ok {
		return cell{num: n, ref: v, isNum: true}
	}
	return cell{ref: v}
}

// value boxes the cell for an exported boundary: a host-call argument, an
// array or object store, a return to Go, a snapshot.
func (c cell) value() Value {
	if c.isNum && c.ref == nil {
		return c.num
	}
	return c.ref
}

func (c cell) isNull() bool { return !c.isNum && c.ref == nil }

func (c cell) truthy() bool {
	if c.isNum {
		return c.num != 0 && !math.IsNaN(c.num)
	}
	return Truthy(c.ref)
}

func (c cell) typeName() string {
	if c.isNum {
		return "number"
	}
	return TypeName(c.ref)
}

func (c cell) stringify() (string, error) {
	if c.isNum {
		return formatNumber(c.num), nil
	}
	return Stringify(c.ref)
}

// display is stringify for diagnostics, which cannot fail themselves: a
// value too deep to print shows the reason in its place.
func (c cell) display() string {
	s, err := c.stringify()
	if err != nil {
		return "<" + err.Error() + ">"
	}
	return s
}

// cellsEqual implements == on cells; see valuesEqual.
func cellsEqual(a, b cell) bool {
	if a.isNum || b.isNum {
		return a.isNum && b.isNum && a.num == b.num
	}
	return valuesEqual(a.ref, b.ref)
}

// slot is one variable. A scope's slots exist from the moment its frame is
// entered, but a name only becomes visible when its declaration executes:
// until then declared is false and lookups fall through to the enclosing
// scope, exactly as a lookup in a not-yet-populated scope used to.
type slot struct {
	cell
	declared bool
	constant bool
}

func (s *slot) define(v cell, constant bool) {
	*s = slot{cell: v, declared: true, constant: constant}
}

// scopeInfo is what the resolve pass records about one lexical scope — a
// function body, block, for/for-of header, catch clause or switch.
type scopeInfo struct {
	// slots is the number of distinct names the scope declares. A scope that
	// declares nothing gets no frame at run time and is invisible to hop
	// counts.
	slots int
	// captured is set when a function literal appears anywhere inside the
	// scope: a closure may then outlive it, so its frames are never reused.
	captured bool
}

// slotRef addresses one slot from an identifier's position: hops frames up
// the chain, then index idx.
type slotRef struct {
	hops, idx int
}

// globalSlot marks a declaration that executes at the top level and binds a
// global by name instead of a frame slot.
const globalSlot = -1

// frame is the run-time instance of a scope that declares something. The
// chain ends at nil, which stands for the context's globals.
type frame struct {
	slots  []slot
	parent *frame
}

// enter instantiates sc under parent. Scopes without slots reuse the parent
// frame; uncaptured scopes draw from the context's free list, so a loop body
// or a call costs no allocation once the list is warm.
func (c *Context) enter(sc *scopeInfo, parent *frame) *frame {
	if sc.slots == 0 {
		return parent
	}
	if sc.captured || len(c.free) == 0 {
		return &frame{slots: make([]slot, sc.slots), parent: parent}
	}
	fr := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	if cap(fr.slots) < sc.slots {
		fr.slots = make([]slot, sc.slots)
	}
	fr.slots = fr.slots[:sc.slots]
	fr.parent = parent
	return fr
}

// leave ends the scope instance enter returned. An uncaptured frame is
// cleared — dropping its references and resetting every slot to undeclared —
// and goes back on the free list.
func (c *Context) leave(sc *scopeInfo, fr *frame) {
	if sc.slots == 0 || sc.captured {
		return
	}
	clear(fr.slots)
	fr.parent = nil
	c.free = append(c.free, fr)
}

// defineGlobal creates or overwrites a global. Overwriting happens in place
// so that identifiers which cached the binding keep seeing it.
func (c *Context) defineGlobal(name string, v cell, constant bool) {
	if s, ok := c.globals[name]; ok {
		s.define(v, constant)
		return
	}
	c.globals[name] = &slot{cell: v, declared: true, constant: constant}
}
