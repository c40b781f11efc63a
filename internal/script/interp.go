package script

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Default sandbox limits. A module that exceeds them fails its current event
// rather than wedging the hosting device.
const (
	// DefaultMaxSteps is the instruction budget of an invocation whose
	// Limits set none, and the most any Limits can set.
	DefaultMaxSteps = 10_000_000
	// maxCallDepth bounds the script call stack.
	maxCallDepth = 200
	// maxArrayLen bounds array growth from index assignment.
	maxArrayLen = 1 << 24
)

// control-flow signals, passed through the error channel internally.
type breakSignal struct{}
type continueSignal struct{}

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }

// returnSignal unwinds to the enclosing call; the value travels in
// interp.ret so that returning a number allocates nothing.
type returnSignal struct{}

func (returnSignal) Error() string { return "return outside function" }

// throwSignal carries a script-thrown value until caught.
type throwSignal struct {
	value Value
	pos   Position
}

func (t throwSignal) Error() string {
	return "uncaught: " + cellOf(t.value).display()
}

// Context is one isolated PipeScript execution environment — the analogue
// of a Duktape context in the paper. A Context owns its globals and host
// bindings; nothing is shared between contexts, which is what isolates
// modules from one another. A Context is not safe for concurrent use; the
// device runtime serializes events per module, matching the paper's
// event-driven module model.
type Context struct {
	// globals are bound by name, since Bind, Restore or a later Load can add
	// one after the code that reads it was resolved; each lives in its own
	// heap slot that is never replaced, so identifiers cache the pointer.
	globals map[string]*slot
	// free holds frames of scopes no closure captured, for reuse (env.go).
	free []*frame
	// lastInstructions holds the interpreter steps of the most recent
	// Load or Call on this context. The device runtime exports it as the
	// `script.<module>.instructions` meter, and the pipecost soundness test
	// checks it against the static bound. Not synchronized — the Context
	// itself is single-threaded by contract.
	lastInstructions int64
	// limits is the resource budget enforced per invocation; the zero
	// value is unlimited (see budget.go).
	limits Limits
	// state is where code given to Load first keeps state between calls
	// (resolve.go); nil while all of it was stateless.
	state *StateWrite
	// write is where code given to Load first writes a container it may not
	// own (resolve.go); nil while all of it was message-read-only.
	write *Position
	// services is set once code given to Load can reach call_service.
	services bool
	// running is the invocation executing right now, nil between
	// invocations.
	running *interp
	// argStack holds the arguments of the host calls in progress, innermost
	// on top: a host function is lent its slice of it for the call.
	argStack []Value
	// top is the invocation state of every Load or Call that
	// interrupts none, zeroed per use; a nested one gets its own interp.
	top interp
}

// NewContext creates a context with the standard library installed.
func NewContext() *Context {
	c := &Context{globals: make(map[string]*slot, len(builtins)+16)}
	installStdlib(c)
	return c
}

// Bind exposes a Go function to scripts under the given global name.
func (c *Context) Bind(name string, fn HostFunc) {
	c.defineGlobal(name, cell{ref: fn}, false)
}

// Has reports whether a global binding exists. It is how the module runtime
// probes for optional callbacks such as init().
func (c *Context) Has(name string) bool {
	_, ok := c.globals[name]
	return ok
}

// Stateless reports whether the code Load has run on this context provably
// carries nothing from one Call to the next — the verdict Facts.Stateless
// reports statically — so that any number of contexts loaded from the same
// source are interchangeable. It speaks for the source only: a host that
// binds a mutable value is on its own.
func (c *Context) Stateless() bool { return c.state == nil }

// ReadOnly reports whether the code Load has run on this context is
// message-read-only — the verdict Facts.ReadOnly reports statically: it
// writes no array or object it did not build itself and keep to itself, so a
// value it receives or sends may be shared with other contexts that do not
// write either. Like Stateless, it speaks for the source only. A nil
// context has loaded nothing and vouches for nothing.
func (c *Context) ReadOnly() bool { return c != nil && c.write == nil }

// CallsServices reports whether the code Load has run on this context can
// reach call_service: an identifier in it can resolve to the global of that
// name. It is the runtime side of the call sites Facts.ServiceTargets and
// Facts.DynamicServiceTargets count, conservative as those are not (a call
// through an alias counts too). The device decodes a frame on receipt for
// such a module, so a service's time never includes the decode.
func (c *Context) CallsServices() bool { return c.services }

// LastInstructions returns the interpreter steps of the most recent
// Load or Call — the per-event count the
// `script.<module>.instructions` meter records.
func (c *Context) LastInstructions() int64 { return c.lastInstructions }

// account records one finished invocation's step count, including failed
// ones — a partial run still consumed its steps.
func (c *Context) account(in *interp) {
	c.lastInstructions = in.steps
	c.running = in.outer
	in.ret = cell{} // keep no returned value alive between invocations
}

// newInterp builds one invocation's execution state from the context's
// limits. Top-level load and init() run under the init budget
// (InitInstructions, falling back to Instructions); events run under
// Instructions; either falls back to DefaultMaxSteps.
func (c *Context) newInterp(initPhase bool) *interp {
	in := &c.top
	if c.running != nil {
		in = new(interp)
	}
	*in = interp{ctx: c, outer: c.running}
	c.running = in
	in.stepLimit = c.limits.Instructions
	if initPhase && c.limits.InitInstructions > 0 {
		in.stepLimit = c.limits.InitInstructions
	}
	if in.stepLimit <= 0 || in.stepLimit > DefaultMaxSteps {
		in.stepLimit = DefaultMaxSteps
	}
	in.memLimit = c.limits.Memory
	return in
}

// Load parses and executes src at the top level: declarations become
// globals, top-level statements run immediately.
func (c *Context) Load(src string) error {
	prog, err := parse(src)
	if err != nil {
		return err
	}
	resolve(prog)
	if c.state == nil {
		c.state = prog.state
	}
	if c.write == nil {
		c.write = prog.write
	}
	c.services = c.services || prog.services
	in := c.newInterp(true)
	defer c.account(in)
	for _, s := range prog.stmts {
		if err := in.exec(s, nil); err != nil {
			return in.publicError(err)
		}
	}
	return nil
}

// Call invokes the named global function with args. Call keeps nothing of
// the slice, so the caller may reuse it once Call returns.
func (c *Context) Call(name string, args ...Value) (Value, error) {
	s, ok := c.globals[name]
	if !ok {
		// Nothing ran: the previous invocation's count must not be read
		// (and metered) again as this one's.
		c.lastInstructions = 0
		return nil, &RuntimeError{Msg: fmt.Sprintf("function %q is not defined", name)}
	}
	in := c.newInterp(name == "init")
	defer c.account(in)
	v, err := in.callValue(s.value(), args, Position{})
	if err != nil {
		return nil, in.publicError(err)
	}
	return v.value(), nil
}

// interp carries per-invocation execution state: the step budget, call
// depth, and the resource meters the sandbox limits are enforced against.
type interp struct {
	ctx *Context
	// outer is the invocation this one interrupted (a host function
	// calling back into the context), restored as running when it ends.
	outer *interp
	steps int64
	depth int
	// ret is the value of the return statement whose returnSignal is in
	// flight.
	ret cell
	// stepLimit is the instruction budget for this invocation.
	stepLimit int64
	// memLimit/memUsed meter script-value allocation (0 limit = off).
	memLimit int64
	memUsed  int64
}

// publicError converts internal control-flow signals into user-facing
// errors.
func (in *interp) publicError(err error) error {
	var t throwSignal
	if errors.As(err, &t) {
		return &RuntimeError{Pos: t.pos, Msg: "uncaught exception: " + cellOf(t.value).display(), Thrown: t.value}
	}
	switch err.(type) {
	case breakSignal, continueSignal, returnSignal:
		return &RuntimeError{Msg: err.Error()}
	}
	return err
}

func (in *interp) step(pos Position) error { return in.pay(1, pos) }

// pay charges n steps against the instruction budget: one per node the
// interpreter evaluates, a builtin's price before its work, and what a
// string comparison or keyed lookup reads (compare, readKey). A charge
// the budget cannot cover ends the invocation at the limit plus one,
// however large n was.
func (in *interp) pay(n int64, pos Position) error {
	if n > in.stepLimit-in.steps {
		in.steps = in.stepLimit + 1
		return &BudgetError{Resource: ResourceInstructions, Limit: in.stepLimit, Used: in.steps, Pos: pos}
	}
	in.steps += n
	return nil
}

// compare pays for comparing x and y when both are strings: one step per
// cmpBlock bytes of the shorter, as far as the comparison can read.
func (in *interp) compare(x, y cell, pos Position) error {
	xs, ok := x.ref.(string)
	ys, ok2 := y.ref.(string)
	if !ok || !ok2 {
		return nil
	}
	return in.pay(int64(min(len(xs), len(ys))/cmpBlock), pos)
}

// readKey is the key an object lookup by idx uses, paid for like a
// comparison of its bytes: hashing it, or matching it against a field's.
func (in *interp) readKey(idx cell, pos Position) (string, error) {
	if key, ok := idx.ref.(string); ok {
		return key, in.compare(idx, idx, pos)
	}
	return in.text(idx, pos)
}

// charge meters n bytes of value allocation against the memory budget.
func (in *interp) charge(n int64, pos Position) error {
	if in.memLimit <= 0 {
		return nil
	}
	in.memUsed += n
	if in.memUsed > in.memLimit {
		return &BudgetError{Resource: ResourceMemory, Limit: in.memLimit, Used: in.memUsed, Pos: pos}
	}
	return nil
}

func (in *interp) errorf(pos Position, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ---- Statements ----

// execList runs stmts in order in one scope instance.
func (in *interp) execList(stmts []stmt, fr *frame) error {
	for _, s := range stmts {
		if err := in.exec(s, fr); err != nil {
			return err
		}
	}
	return nil
}

// define executes a declaration: into its resolved slot of the current
// scope's frame, or by name at the top level.
func (in *interp) define(fr *frame, slot int, name string, v cell, constant bool) {
	if slot == globalSlot {
		in.ctx.defineGlobal(name, v, constant)
		return
	}
	fr.slots[slot].define(v, constant)
}

func (in *interp) exec(s stmt, fr *frame) error {
	if err := in.step(s.position()); err != nil {
		return err
	}
	switch st := s.(type) {
	case *exprStmt:
		_, err := in.eval(st.x, fr)
		return err
	case *declStmt:
		var v cell
		if st.init != nil {
			var err error
			if v, err = in.eval(st.init, fr); err != nil {
				return err
			}
		}
		in.define(fr, st.slot, st.name, v, st.constant)
		return nil
	case *blockStmt:
		inner := in.ctx.enter(&st.scope, fr)
		err := in.execList(st.stmts, inner)
		in.ctx.leave(&st.scope, inner)
		return err
	case *ifStmt:
		cond, err := in.eval(st.cond, fr)
		if err != nil {
			return err
		}
		if cond.truthy() {
			return in.exec(st.then, fr)
		}
		if st.elsE != nil {
			return in.exec(st.elsE, fr)
		}
		return nil
	case *whileStmt:
		for {
			if err := in.step(st.pos); err != nil {
				return err
			}
			cond, err := in.eval(st.cond, fr)
			if err != nil {
				return err
			}
			if !cond.truthy() {
				return nil
			}
			if err := in.exec(st.body, fr); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil
				case continueSignal:
					continue
				default:
					return err
				}
			}
		}
	case *forStmt:
		inner := in.ctx.enter(&st.scope, fr)
		err := in.execFor(st, inner)
		in.ctx.leave(&st.scope, inner)
		return err
	case *forOfStmt:
		iter, err := in.eval(st.iter, fr)
		if err != nil {
			return err
		}
		switch x := iter.ref.(type) {
		case *Array:
			for _, v := range x.Elems {
				if stop, err := in.forOfBody(st, fr, v); stop {
					return err
				}
			}
		case *Object:
			// Listing the keys is keys()'s work, and costs what it does.
			if err := in.pay(sorted.of(size(x), longest(x)), st.pos); err != nil {
				return err
			}
			for _, k := range x.SortedKeys() {
				if stop, err := in.forOfBody(st, fr, k); stop {
					return err
				}
			}
		case string:
			// Rune by rune in place: each item is built when its step is paid.
			for _, r := range x {
				if stop, err := in.forOfBody(st, fr, string(r)); stop {
					return err
				}
			}
		default:
			if iter.isNull() {
				return nil
			}
			return in.errorf(st.pos, "for-of requires array, object or string, got %s", iter.typeName())
		}
		return nil
	case *returnStmt:
		var v cell
		if st.value != nil {
			var err error
			if v, err = in.eval(st.value, fr); err != nil {
				return err
			}
		}
		in.ret = v
		return returnSignal{}
	case *breakStmt:
		return breakSignal{}
	case *continueStmt:
		return continueSignal{}
	case *throwStmt:
		v, err := in.eval(st.value, fr)
		if err != nil {
			return err
		}
		return throwSignal{value: v.value(), pos: st.pos}
	case *tryStmt:
		err := in.exec(st.body, fr)
		var thrown throwSignal
		if errors.As(err, &thrown) && st.catch != nil {
			inner := in.ctx.enter(&st.catchScope, fr)
			if st.catchVar != "" {
				inner.slots[st.catchSlot].define(cellOf(thrown.value), false)
			}
			err = in.execList(st.catch.stmts, inner)
			in.ctx.leave(&st.catchScope, inner)
		}
		if st.finally != nil {
			// A return pending in err keeps its value across the calls
			// finally makes.
			ret := in.ret
			if ferr := in.exec(st.finally, fr); ferr != nil {
				return ferr // finally's completion overrides
			}
			in.ret = ret
		}
		return err
	case *switchStmt:
		subject, err := in.eval(st.subject, fr)
		if err != nil {
			return err
		}
		// Find the matching case (strict equality), falling back to
		// default; execution falls through subsequent cases until break,
		// as in JavaScript.
		start := -1
		for i, c := range st.cases {
			v, err := in.eval(c.value, fr)
			if err != nil {
				return err
			}
			if err := in.compare(subject, v, st.pos); err != nil {
				return err
			}
			if cellsEqual(subject, v) {
				start = i
				break
			}
		}
		inner := in.ctx.enter(&st.scope, fr)
		err = in.execSwitch(st, start, inner)
		in.ctx.leave(&st.scope, inner)
		return err
	case *funcDecl:
		if err := in.charge(64, st.position()); err != nil {
			return err
		}
		fn := &Function{name: st.fn.name, lit: st.fn, env: fr}
		in.define(fr, st.slot, st.fn.name, cell{ref: fn}, false)
		return nil
	default:
		return in.errorf(s.position(), "unhandled statement %T", s)
	}
}

// forOfBody runs one turn of a for-of loop with its variable bound to v,
// paying the turn's step first. stop reports a break or an error.
func (in *interp) forOfBody(st *forOfStmt, fr *frame, v Value) (stop bool, err error) {
	if err := in.step(st.pos); err != nil {
		return true, err
	}
	inner := in.ctx.enter(&st.scope, fr)
	inner.slots[st.slot].define(cellOf(v), false)
	err = in.exec(st.body, inner)
	in.ctx.leave(&st.scope, inner)
	switch err.(type) {
	case nil, continueSignal:
		return false, nil
	case breakSignal:
		return true, nil
	}
	return true, err
}

// execFor runs a for loop inside its own scope instance fr.
func (in *interp) execFor(st *forStmt, fr *frame) error {
	if st.init != nil {
		if err := in.exec(st.init, fr); err != nil {
			return err
		}
	}
	for {
		if err := in.step(st.pos); err != nil {
			return err
		}
		if st.cond != nil {
			cond, err := in.eval(st.cond, fr)
			if err != nil {
				return err
			}
			if !cond.truthy() {
				return nil
			}
		}
		if err := in.exec(st.body, fr); err != nil {
			switch err.(type) {
			case breakSignal:
				return nil
			case continueSignal:
				// fall through to post
			default:
				return err
			}
		}
		if st.post != nil {
			if _, err := in.eval(st.post, fr); err != nil {
				return err
			}
		}
	}
}

// execSwitch runs the case bodies from start (-1: the default body only)
// in the switch's scope instance fr, until a break.
func (in *interp) execSwitch(st *switchStmt, start int, fr *frame) error {
	if start < 0 {
		err := in.execList(st.defaultBody, fr)
		if _, isBreak := err.(breakSignal); isBreak {
			return nil
		}
		return err
	}
	for _, c := range st.cases[start:] {
		if err := in.execList(c.body, fr); err != nil {
			if _, isBreak := err.(breakSignal); isBreak {
				return nil
			}
			return err
		}
	}
	return nil
}

// ---- Expressions ----

// lookup finds the variable id names from frame fr: the innermost resolved
// scope whose declaration has executed, else the global of that name, else
// nil.
func (in *interp) lookup(id *identExpr, fr *frame) *slot {
	for _, r := range id.refs {
		f := fr
		for h := r.hops; h > 0; h-- {
			f = f.parent
		}
		if s := &f.slots[r.idx]; s.declared {
			return s
		}
	}
	if id.global == nil {
		id.global = in.ctx.globals[id.name]
	}
	return id.global
}

func (in *interp) eval(e expr, fr *frame) (cell, error) {
	if err := in.step(e.position()); err != nil {
		return cell{}, err
	}
	switch ex := e.(type) {
	case *numberLit:
		return ex.cell, nil
	case *stringLit:
		return cell{ref: ex.boxed}, nil
	case *boolLit:
		return cell{ref: ex.value}, nil
	case *nullLit:
		return cell{}, nil
	case *identExpr:
		s := in.lookup(ex, fr)
		if s == nil {
			return cell{}, in.errorf(ex.pos, "%q is not defined", ex.name)
		}
		return s.cell, nil
	case *arrayLit:
		if err := in.charge(24+16*int64(len(ex.elems)), ex.pos); err != nil {
			return cell{}, err
		}
		arr := &Array{Elems: make([]Value, len(ex.elems))}
		for i, el := range ex.elems {
			v, err := in.eval(el, fr)
			if err != nil {
				return cell{}, err
			}
			arr.Elems[i] = v.value()
		}
		return cell{ref: arr}, nil
	case *objectLit:
		return in.objectLiteral(ex, fr, nil)
	case *funcLit:
		if err := in.charge(64, ex.pos); err != nil {
			return cell{}, err
		}
		return cell{ref: &Function{name: ex.name, lit: ex, env: fr}}, nil
	case *unaryExpr:
		return in.evalUnary(ex, fr)
	case *binaryExpr:
		x, err := in.eval(ex.x, fr)
		if err != nil {
			return cell{}, err
		}
		y, err := in.eval(ex.y, fr)
		if err != nil {
			return cell{}, err
		}
		return in.applyBinary(ex.opc, ex.op, x, y, ex.pos)
	case *logicalExpr:
		x, err := in.eval(ex.x, fr)
		if err != nil {
			return cell{}, err
		}
		if x.truthy() != (ex.opc == opAnd) {
			return x, nil
		}
		return in.eval(ex.y, fr)
	case *condExpr:
		cond, err := in.eval(ex.cond, fr)
		if err != nil {
			return cell{}, err
		}
		if cond.truthy() {
			return in.eval(ex.then, fr)
		}
		return in.eval(ex.elsE, fr)
	case *assignExpr:
		return in.evalAssign(ex, fr)
	case *updateExpr:
		return in.evalUpdate(ex, fr)
	case *callExpr:
		return in.evalCall(ex, fr)
	case *memberExpr:
		obj, err := in.eval(ex.obj, fr)
		if err != nil {
			return cell{}, err
		}
		return in.member(obj, ex)
	case *indexExpr:
		obj, err := in.eval(ex.obj, fr)
		if err != nil {
			return cell{}, err
		}
		idx, err := in.eval(ex.index, fr)
		if err != nil {
			return cell{}, err
		}
		return in.index(obj, idx, ex.pos)
	default:
		return cell{}, in.errorf(e.position(), "unhandled expression %T", e)
	}
}

func (in *interp) evalUnary(ex *unaryExpr, fr *frame) (cell, error) {
	x, err := in.eval(ex.x, fr)
	if err != nil {
		return cell{}, err
	}
	switch ex.opc {
	case opNeg:
		if !x.isNum {
			return cell{}, in.errorf(ex.pos, "cannot negate %s", x.typeName())
		}
		return numCell(-x.num), nil
	case opNot:
		return cell{ref: !x.truthy()}, nil
	case opTypeof:
		return cell{ref: x.typeName()}, nil
	default:
		return cell{}, in.errorf(ex.pos, "unknown unary operator %q", ex.op)
	}
}

// text is c.stringify bounded by what is left of the memory budget, with
// its failures raised at pos: a rendering too long for the budget is the
// memory breach it was about to become, a value nested past MaxDepth a
// runtime error.
func (in *interp) text(c cell, pos Position) (string, error) {
	if c.isNum {
		return formatNumber(c.num), nil
	}
	left := in.memLeft()
	s, err := StringifyMax(c.ref, left)
	if err == ErrTooLong {
		return "", in.charge(int64(left)+1, pos)
	}
	if err != nil {
		return "", in.errorf(pos, "%v", err)
	}
	return s, nil
}

// applyBinary applies a non-short-circuit operator; text is its source
// form, for error messages.
func (in *interp) applyBinary(op opcode, text string, x, y cell, pos Position) (cell, error) {
	if !x.isNum && !y.isNum && op >= opEq && op <= opGe {
		if err := in.compare(x, y, pos); err != nil {
			return cell{}, err
		}
	}
	switch op {
	case opEq:
		return cell{ref: cellsEqual(x, y)}, nil
	case opNe:
		return cell{ref: !cellsEqual(x, y)}, nil
	}

	if !x.isNum || !y.isNum {
		xs, xIsStr := x.ref.(string)
		ys, yIsStr := y.ref.(string)
		// String concatenation mirrors JS: + with a string operand
		// concatenates.
		if op == opAdd && (xIsStr || yIsStr) {
			xt, err := in.text(x, pos)
			if err != nil {
				return cell{}, err
			}
			yt, err := in.text(y, pos)
			if err != nil {
				return cell{}, err
			}
			s := xt + yt
			if err := in.charge(int64(len(s)), pos); err != nil {
				return cell{}, err
			}
			return cell{ref: s}, nil
		}
		// String ordering comparisons.
		if xIsStr && yIsStr {
			switch op {
			case opLt:
				return cell{ref: xs < ys}, nil
			case opLe:
				return cell{ref: xs <= ys}, nil
			case opGt:
				return cell{ref: xs > ys}, nil
			case opGe:
				return cell{ref: xs >= ys}, nil
			}
		}
		return cell{}, in.errorf(pos, "operator %q requires numbers, got %s and %s", text, x.typeName(), y.typeName())
	}

	xn, yn := x.num, y.num
	switch op {
	case opAdd:
		return numCell(xn + yn), nil
	case opSub:
		return numCell(xn - yn), nil
	case opMul:
		return numCell(xn * yn), nil
	case opDiv:
		if yn == 0 {
			return cell{}, in.errorf(pos, "division by zero")
		}
		return numCell(xn / yn), nil
	case opMod:
		if yn == 0 {
			return cell{}, in.errorf(pos, "modulo by zero")
		}
		return numCell(math.Mod(xn, yn)), nil
	case opLt:
		return cell{ref: xn < yn}, nil
	case opLe:
		return cell{ref: xn <= yn}, nil
	case opGt:
		return cell{ref: xn > yn}, nil
	case opGe:
		return cell{ref: xn >= yn}, nil
	default:
		return cell{}, in.errorf(pos, "unknown operator %q", text)
	}
}

func (in *interp) evalAssign(ex *assignExpr, fr *frame) (cell, error) {
	rhs, err := in.eval(ex.value, fr)
	if err != nil {
		return cell{}, err
	}
	if ex.opc != opNone {
		cur, err := in.eval(ex.target, fr)
		if err != nil {
			return cell{}, err
		}
		text := ex.op[:len(ex.op)-1]
		if rhs, err = in.applyBinary(ex.opc, text, cur, rhs, ex.pos); err != nil {
			return cell{}, err
		}
	}
	if err := in.writeTarget(ex.target, rhs, fr); err != nil {
		return cell{}, err
	}
	return rhs, nil
}

func (in *interp) evalUpdate(ex *updateExpr, fr *frame) (cell, error) {
	cur, err := in.eval(ex.target, fr)
	if err != nil {
		return cell{}, err
	}
	if !cur.isNum {
		return cell{}, in.errorf(ex.pos, "%s requires a number, got %s", ex.op, cur.typeName())
	}
	next := numCell(cur.num + 1)
	if ex.opc == opDec {
		next = numCell(cur.num - 1)
	}
	if err := in.writeTarget(ex.target, next, fr); err != nil {
		return cell{}, err
	}
	if ex.postfix {
		return cur, nil
	}
	return next, nil
}

func (in *interp) writeTarget(target expr, v cell, fr *frame) error {
	switch t := target.(type) {
	case *identExpr:
		s := in.lookup(t, fr)
		if s == nil {
			return in.errorf(t.pos, "%q is not defined", t.name)
		}
		if s.constant {
			return in.errorf(t.pos, "cannot assign to constant %q", t.name)
		}
		s.cell = v
		return nil
	case *memberExpr:
		obj, err := in.eval(t.obj, fr)
		if err != nil {
			return err
		}
		o, ok := obj.ref.(*Object)
		if !ok {
			return in.errorf(t.pos, "cannot set field %q on %s", t.name, obj.typeName())
		}
		o.at(t.key).setCell(v)
		return nil
	case *indexExpr:
		obj, err := in.eval(t.obj, fr)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.index, fr)
		if err != nil {
			return err
		}
		switch o := obj.ref.(type) {
		case *Array:
			n := idx.num
			if !idx.isNum || n != math.Trunc(n) || n < 0 {
				return in.errorf(t.pos, "bad array index %s", idx.display())
			}
			if n >= maxArrayLen {
				return in.errorf(t.pos, "array index %s exceeds limit", idx.display())
			}
			i := int(n)
			if grow := i + 1 - len(o.Elems); grow > 0 {
				if err := in.charge(16*int64(grow), t.pos); err != nil {
					return err
				}
			}
			for len(o.Elems) <= i {
				o.Elems = append(o.Elems, nil)
			}
			o.Elems[i] = v.value()
			return nil
		case *Object:
			key, err := in.readKey(idx, t.pos)
			if err != nil {
				return err
			}
			o.atKey(key).setCell(v)
			return nil
		default:
			return in.errorf(t.pos, "cannot index-assign into %s", obj.typeName())
		}
	default:
		return in.errorf(target.position(), "invalid assignment target")
	}
}

func (in *interp) member(obj cell, ex *memberExpr) (cell, error) {
	name, pos := ex.name, ex.pos
	switch o := obj.ref.(type) {
	case *Object:
		if i := o.slotOf(ex.key); i >= 0 {
			return o.fields[i].cell(), nil
		}
		return cell{}, nil
	case *Array:
		if name == "length" {
			return numCell(float64(len(o.Elems))), nil
		}
		return cell{}, in.errorf(pos, "array has no member %q (use builtins: push, pop, slice, ...)", name)
	case string:
		if name == "length" {
			return numCell(float64(len(o))), nil
		}
		return cell{}, in.errorf(pos, "string has no member %q", name)
	}
	if obj.isNull() {
		return cell{}, in.errorf(pos, "cannot read %q of null", name)
	}
	return cell{}, in.errorf(pos, "cannot read member %q of %s", name, obj.typeName())
}

func (in *interp) index(obj, idx cell, pos Position) (cell, error) {
	switch o := obj.ref.(type) {
	case *Array:
		n := idx.num
		if !idx.isNum || n != math.Trunc(n) {
			return cell{}, in.errorf(pos, "bad array index %s", idx.display())
		}
		i := int(n)
		if i < 0 || i >= len(o.Elems) {
			return cell{}, nil // out-of-range reads yield null, like JS undefined
		}
		return cellOf(o.Elems[i]), nil
	case *Object:
		key, err := in.readKey(idx, pos)
		if err != nil {
			return cell{}, err
		}
		if i := o.slot(key); i >= 0 {
			return o.fields[i].cell(), nil
		}
		return cell{}, nil
	case string:
		n := idx.num
		if !idx.isNum || n != math.Trunc(n) {
			return cell{}, in.errorf(pos, "bad string index %s", idx.display())
		}
		i := int(n)
		if i < 0 || i >= len(o) {
			return cell{}, nil
		}
		return cell{ref: string(o[i])}, nil
	}
	if obj.isNull() {
		return cell{}, in.errorf(pos, "cannot index null")
	}
	return cell{}, in.errorf(pos, "cannot index %s", obj.typeName())
}

// ---- Calls ----

// evalCall evaluates a call expression. Calling a script function that does
// not read `arguments` evaluates each argument straight into its parameter's
// slot in the callee's frame, so numbers stay unboxed and no argument slice
// exists; any other callee borrows its arguments from the context's argument
// stack.
func (in *interp) evalCall(ex *callExpr, fr *frame) (cell, error) {
	callee, err := in.eval(ex.callee, fr)
	if err != nil {
		return cell{}, err
	}
	fn, ok := callee.ref.(*Function)
	if !ok || fn.lit.usesArguments {
		return in.callLent(callee.value(), ex, fr)
	}
	lit := fn.lit
	callFr := in.ctx.enter(&lit.scope, fn.env)
	for i, a := range ex.args {
		v, err := in.eval(a, fr)
		if err != nil {
			in.ctx.leave(&lit.scope, callFr)
			return cell{}, err
		}
		if i < len(lit.paramSlots) {
			callFr.slots[lit.paramSlots[i]].define(v, false)
		}
	}
	for i := len(ex.args); i < len(lit.paramSlots); i++ {
		callFr.slots[lit.paramSlots[i]].define(cell{}, false)
	}
	return in.invoke(lit, callFr, len(ex.args), ex.pos)
}

// objectLiteral evaluates object literal ex, its step already paid, into
// obj, an empty object with room for its fields, or into a new one when obj
// is nil.
func (in *interp) objectLiteral(ex *objectLit, fr *frame, obj *Object) (cell, error) {
	if err := in.charge(48+32*int64(len(ex.fields)), ex.pos); err != nil {
		return cell{}, err
	}
	if obj == nil {
		obj = NewObjectSize(len(ex.fields))
	}
	for _, f := range ex.fields {
		v, err := in.eval(f.value, fr)
		if err != nil {
			return cell{}, err
		}
		obj.at(f.handle).setCell(v)
	}
	return cell{ref: obj}, nil
}

// callLent evaluates a call's arguments onto the argument stack — above
// those of any call still being evaluated, so nested calls nest — lends the
// callee its capped slice and clears it after. A host function's borrowed
// argument written as an object literal (objectLit.lent) is evaluated into
// the site's scratch object unless that is lent already — to a call the
// evaluation of one of its own fields reaches again, or to the host call
// that called back into the context — and the scratch is emptied on every
// way out, for the site's next call. A call that hands it back, as its
// result or inside it, keeps it: the site makes a new one next time.
func (in *interp) callLent(fn Value, ex *callExpr, fr *frame) (res cell, err error) {
	c := in.ctx
	base := len(c.argStack)
	var lent *objectLit
	defer func() {
		clear(c.argStack[base:])
		c.argStack = c.argStack[:base]
		if lent == nil {
			return
		}
		lent.busy = false
		if reaches(res.ref, lent.scratch) {
			lent.scratch = nil
			return
		}
		clear(lent.scratch.fields)
		lent.scratch.fields, lent.scratch.index = lent.scratch.fields[:0], nil
	}()
	_, host := fn.(HostFunc)
	for _, a := range ex.args {
		var v cell
		if lit, ok := a.(*objectLit); ok && lit.lent && !lit.busy && host {
			if lit.scratch == nil {
				lit.scratch = NewObjectSize(len(lit.fields))
			}
			lent, lit.busy = lit, true
			if err = in.step(lit.pos); err == nil {
				v, err = in.objectLiteral(lit, fr, lit.scratch)
			}
		} else {
			v, err = in.eval(a, fr)
		}
		if err != nil {
			return cell{}, err
		}
		c.argStack = append(c.argStack, v.value())
	}
	n := len(c.argStack)
	return in.callValue(fn, c.argStack[base:n:n], ex.pos)
}

// callValue invokes a script function or host function with boxed arguments.
func (in *interp) callValue(callee Value, args []Value, pos Position) (cell, error) {
	var v Value
	var err error
	switch fn := callee.(type) {
	case *builtin:
		// The price is paid before the work, so a call the budget cannot
		// afford does none of it.
		if err := in.pay(fn.price.charge(args), pos); err != nil {
			return cell{}, err
		}
		v, err = fn.fn(in, args)
	case HostFunc:
		v, err = fn(args)
	case *Function:
		lit := fn.lit
		callFr := in.ctx.enter(&lit.scope, fn.env)
		for i, idx := range lit.paramSlots {
			var v Value
			if i < len(args) {
				v = args[i]
			}
			callFr.slots[idx].define(cellOf(v), false)
		}
		if lit.usesArguments { // args is lent; `arguments` outlives the call
			callFr.slots[lit.argsSlot].define(cell{ref: &Array{Elems: slices.Clone(args)}}, false)
		}
		return in.invoke(lit, callFr, len(args), pos)
	case nil:
		return cell{}, in.errorf(pos, "cannot call null")
	default:
		return cell{}, in.errorf(pos, "%s is not callable", TypeName(callee))
	}
	if err != nil {
		// Host errors surface as catchable script throws carrying the
		// error text, so modules can recover from failed service calls.
		// Runtime and budget errors stay typed and uncatchable — a
		// handler must not swallow its own abort.
		var rt *RuntimeError
		if errors.As(err, &rt) {
			return cell{}, err
		}
		var be *BudgetError
		if errors.As(err, &be) {
			return cell{}, err
		}
		return cell{}, throwSignal{value: err.Error(), pos: pos}
	}
	// Host and builtin results are charged shallowly here — the one
	// choke point every host-constructed value passes through.
	if err := in.charge(sizeEstimate(v), pos); err != nil {
		return cell{}, err
	}
	return cellOf(v), nil
}

// invoke runs a function body in its prepared call frame fr and releases
// the frame.
func (in *interp) invoke(lit *funcLit, fr *frame, nargs int, pos Position) (cell, error) {
	in.depth++
	v, err := in.runBody(lit, fr, nargs, pos)
	in.depth--
	in.ctx.leave(&lit.scope, fr)
	return v, err
}

func (in *interp) runBody(lit *funcLit, fr *frame, nargs int, pos Position) (cell, error) {
	if in.depth > maxCallDepth {
		return cell{}, in.errorf(pos, "call stack depth limit exceeded")
	}
	if err := in.charge(24+16*int64(nargs), pos); err != nil {
		return cell{}, err
	}
	err := in.execList(lit.body.stmts, fr)
	if _, ok := err.(returnSignal); ok {
		return in.ret, nil
	}
	return cell{}, err
}
