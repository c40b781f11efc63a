package script

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Default sandbox limits. A module that exceeds them fails its current event
// rather than wedging the hosting device.
const (
	// DefaultMaxSteps bounds evaluation steps per top-level invocation.
	DefaultMaxSteps = 10_000_000
	// DefaultMaxDepth bounds the script call stack.
	DefaultMaxDepth = 200
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
	free     []*frame
	maxSteps int64
	maxDepth int
	// instructions accumulates interpreter steps across every Load/Eval/Call
	// on this context; lastInstructions holds the count of the most recent
	// one. The device runtime exports them as the
	// `script.<module>.instructions` meter, and the pipecost soundness test
	// checks lastInstructions against the static bound. Not synchronized —
	// the Context itself is single-threaded by contract.
	instructions     int64
	lastInstructions int64
	// limits is the resource budget enforced per invocation; the zero
	// value is unlimited (see budget.go).
	limits Limits
	// state is where code given to Load first keeps state between calls
	// (resolve.go); nil while all of it was stateless.
	state *StateWrite
	// running is the invocation executing right now, nil between
	// invocations: how the builtins whose output size is not bounded by
	// their input's (str, join, json_encode) find the memory budget.
	running *interp
}

// NewContext creates a context with the standard library installed.
func NewContext() *Context {
	c := &Context{
		globals:  make(map[string]*slot, len(builtins)+16),
		maxSteps: DefaultMaxSteps,
		maxDepth: DefaultMaxDepth,
	}
	installStdlib(c)
	return c
}

// SetMaxSteps overrides the per-invocation evaluation step budget.
func (c *Context) SetMaxSteps(n int64) { c.maxSteps = n }

// SetMaxDepth overrides the script call-stack limit.
func (c *Context) SetMaxDepth(n int) { c.maxDepth = n }

// Bind exposes a Go function to scripts under the given global name.
func (c *Context) Bind(name string, fn HostFunc) {
	c.defineGlobal(name, cell{ref: fn}, false)
}

// BindValue exposes a value to scripts under the given global name.
func (c *Context) BindValue(name string, v Value) {
	c.defineGlobal(name, cellOf(v), false)
}

// Global returns the value of a global binding.
func (c *Context) Global(name string) (Value, bool) {
	s, ok := c.globals[name]
	if !ok {
		return nil, false
	}
	return s.value(), true
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
// binds a mutable value, or Evals an assignment, is on its own.
func (c *Context) Stateless() bool { return c.state == nil }

// Instructions returns the total interpreter steps executed by this
// context across all invocations so far.
func (c *Context) Instructions() int64 { return c.instructions }

// LastInstructions returns the interpreter steps of the most recent
// Load, Eval or Call — the per-event count the
// `script.<module>.instructions` meter records.
func (c *Context) LastInstructions() int64 { return c.lastInstructions }

// account records one finished invocation's step count, including failed
// ones — a partial run still consumed its steps.
func (c *Context) account(in *interp) {
	c.lastInstructions = in.steps
	c.instructions += in.steps
	c.running = in.outer
}

// newInterp builds one invocation's execution state from the context's
// limits. Top-level load and init() run under the init budget
// (InitInstructions, falling back to Instructions); events run under
// Instructions.
func (c *Context) newInterp(initPhase bool) *interp {
	in := &interp{ctx: c, outer: c.running}
	c.running = in
	in.stepLimit = c.limits.Instructions
	if initPhase && c.limits.InitInstructions > 0 {
		in.stepLimit = c.limits.InitInstructions
	}
	in.memLimit = c.limits.Memory
	if c.limits.Timeout > 0 {
		in.timeout = c.limits.Timeout
		in.start = time.Now()
	}
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
	in := c.newInterp(true)
	defer c.account(in)
	for _, s := range prog.stmts {
		if err := in.exec(s, nil); err != nil {
			return in.publicError(err)
		}
	}
	return nil
}

// Eval parses and evaluates src as a single expression and returns its
// value.
func (c *Context) Eval(src string) (Value, error) {
	prog, err := parse(src)
	if err != nil {
		return nil, err
	}
	resolve(prog)
	in := c.newInterp(false)
	defer c.account(in)
	var last cell
	for _, s := range prog.stmts {
		es, ok := s.(*exprStmt)
		if !ok {
			if err := in.exec(s, nil); err != nil {
				return nil, in.publicError(err)
			}
			last = cell{}
			continue
		}
		if last, err = in.eval(es.x, nil); err != nil {
			return nil, in.publicError(err)
		}
	}
	return last.value(), nil
}

// Call invokes the named global function with args.
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
	// stepLimit is the configured instruction budget for this invocation
	// (0 = only the hard DefaultMaxSteps ceiling applies).
	stepLimit int64
	// memLimit/memUsed meter script-value allocation (0 limit = off).
	memLimit int64
	memUsed  int64
	// timeout/start/hostDur implement the wall-clock backstop; hostDur
	// accumulates time spent inside host calls, which is excluded so a
	// slow service cannot breach its caller.
	timeout time.Duration
	start   time.Time
	hostDur time.Duration
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

func (in *interp) step(pos Position) error {
	in.steps++
	if in.stepLimit > 0 && in.steps > in.stepLimit {
		return &BudgetError{Resource: ResourceInstructions, Limit: in.stepLimit, Used: in.steps, Pos: pos}
	}
	if in.steps > in.ctx.maxSteps {
		return &RuntimeError{Pos: pos, Msg: "step budget exhausted (possible infinite loop)"}
	}
	// The wall-clock backstop is checked every 1024 steps: cheap enough to
	// leave on, frequent enough that a spin costs at most a few µs past
	// the deadline.
	if in.timeout > 0 && in.steps&1023 == 0 {
		if used := time.Since(in.start) - in.hostDur; used > in.timeout {
			return &BudgetError{
				Resource: ResourceTimeout,
				Limit:    in.timeout.Milliseconds(),
				Used:     used.Milliseconds(),
				Pos:      pos,
			}
		}
	}
	return nil
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
		var items []Value
		switch x := iter.ref.(type) {
		case *Array:
			items = x.Elems
		case *Object:
			for _, k := range x.SortedKeys() {
				items = append(items, k)
			}
		case string:
			for _, r := range x {
				items = append(items, string(r))
			}
		default:
			if iter.isNull() {
				return nil
			}
			return in.errorf(st.pos, "for-of requires array, object or string, got %s", iter.typeName())
		}
		for _, v := range items {
			if err := in.step(st.pos); err != nil {
				return err
			}
			inner := in.ctx.enter(&st.scope, fr)
			inner.slots[st.slot].define(cellOf(v), false)
			err := in.exec(st.body, inner)
			in.ctx.leave(&st.scope, inner)
			if err != nil {
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
		if err := in.charge(48+32*int64(len(ex.fields)), ex.pos); err != nil {
			return cell{}, err
		}
		obj := NewObject()
		for _, f := range ex.fields {
			v, err := in.eval(f.value, fr)
			if err != nil {
				return cell{}, err
			}
			obj.Set(f.key, v.value())
		}
		return cell{ref: obj}, nil
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
		return in.member(obj, ex.name, ex.pos)
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
	left := in.ctx.memLeft()
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
		o.Set(t.name, v.value())
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
			i := int(n)
			if i >= maxArrayLen {
				return in.errorf(t.pos, "array index %d exceeds limit", i)
			}
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
			key, ok := idx.ref.(string)
			if !ok {
				if key, err = in.text(idx, t.pos); err != nil {
					return err
				}
			}
			o.Set(key, v.value())
			return nil
		default:
			return in.errorf(t.pos, "cannot index-assign into %s", obj.typeName())
		}
	default:
		return in.errorf(target.position(), "invalid assignment target")
	}
}

func (in *interp) member(obj cell, name string, pos Position) (cell, error) {
	switch o := obj.ref.(type) {
	case *Object:
		return cellOf(o.Get(name)), nil
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
		key, ok := idx.ref.(string)
		if !ok {
			var err error
			if key, err = in.text(idx, pos); err != nil {
				return cell{}, err
			}
		}
		return cellOf(o.Get(key)), nil
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
// exists; every other callee receives its arguments as a []Value.
func (in *interp) evalCall(ex *callExpr, fr *frame) (cell, error) {
	callee, err := in.eval(ex.callee, fr)
	if err != nil {
		return cell{}, err
	}
	fn, ok := callee.ref.(*Function)
	if !ok || fn.lit.usesArguments {
		args := make([]Value, len(ex.args))
		for i, a := range ex.args {
			v, err := in.eval(a, fr)
			if err != nil {
				return cell{}, err
			}
			args[i] = v.value()
		}
		return in.callValue(callee.value(), args, ex.pos)
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

// callValue invokes a script function or host function with boxed arguments.
func (in *interp) callValue(callee Value, args []Value, pos Position) (cell, error) {
	switch fn := callee.(type) {
	case HostFunc:
		var hostStart time.Time
		if in.timeout > 0 {
			hostStart = time.Now()
		}
		v, err := fn(args)
		if in.timeout > 0 {
			in.hostDur += time.Since(hostStart)
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
		if lit.usesArguments {
			callFr.slots[lit.argsSlot].define(cell{ref: &Array{Elems: args}}, false)
		}
		return in.invoke(lit, callFr, len(args), pos)
	case nil:
		return cell{}, in.errorf(pos, "cannot call null")
	default:
		return cell{}, in.errorf(pos, "%s is not callable", TypeName(callee))
	}
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
	if in.depth > in.ctx.maxDepth {
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
