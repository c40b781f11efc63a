package script

import "fmt"

// The resolve pass: one walk over a freshly parsed program, run by Load and
// Eval before the first statement executes, that annotates the AST in place
// with everything the evaluator would otherwise recompute per visit —
// where each identifier lives, how large each scope's frame is and whether a
// closure can capture it, operators as enums, literals boxed once.
//
// Scoping is dynamic in one respect that the pass must preserve: a scope
// starts empty and a name enters it when its declaration executes, so a
// reference that runs first (textually earlier in the block, in a function
// called before the `var`, on the far side of a skipped switch case) sees the
// enclosing binding. An identifier therefore resolves to every enclosing
// scope that declares its name, innermost first, and the evaluator takes the
// first whose slot has been declared, then the globals by name.

// opcode is an operator decoded from its source text.
type opcode uint8

const (
	opNone opcode = iota
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opAnd
	opOr
	opNeg
	opNot
	opTypeof
	opInc
	opDec
)

// binaryOps also decodes a compound assignment, by its operator without the
// trailing "=".
var binaryOps = map[string]opcode{
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
	"==": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe,
	"&&": opAnd, "||": opOr,
}

var unaryOps = map[string]opcode{
	"-": opNeg, "!": opNot, "typeof": opTypeof, "++": opInc, "--": opDec,
}

// scope is the resolver's view of one lexical scope while it is open.
type scope struct {
	info   *scopeInfo // the owning node's annotation, filled in as names are declared
	names  map[string]int
	parent *scope   // enclosing scope, continuing through function boundaries
	fn     *funcLit // set on a function's own scope
}

type resolver struct {
	cur *scope // nil at the top level, where declarations bind globals
	// globals holds the names the program declares at the top level; state is
	// the first place found so far where it keeps state between calls.
	globals map[string]bool
	state   *StateWrite
}

// StateWrite is the first place a module keeps state from one event to the
// next: the global it declares mutable or assigns (Name), or, with Name
// empty, a top-level statement that runs when the module loads.
type StateWrite struct {
	Name string
	Pos  Position
}

func (w StateWrite) String() string {
	if w.Name == "" {
		return fmt.Sprintf("top-level statement at %s", w.Pos)
	}
	return fmt.Sprintf("writes global %q at %s", w.Name, w.Pos)
}

// resolve annotates prog and, as the one walk that knows where every
// identifier can land, decides whether the module is stateless (prog.state
// stays nil). PipeScript cannot create a global by assignment, so a module
// carries nothing from one call to the next iff its top level is only
// function declarations and consts initialised from scalar literals, and no
// assignment, ++ or -- anywhere names an identifier that can resolve to a
// global — the functions and builtins included, which are ordinary mutable
// bindings. Member and index writes need no check of their own: with those
// two rules no global holds an object or array to write through.
func resolve(prog *program) {
	var r resolver
	for _, s := range prog.stmts {
		switch st := s.(type) {
		case *funcDecl:
			continue
		case *declStmt:
			if !st.constant || !scalarLiteral(st.init) {
				r.noteState(st.name, st.pos)
			}
		default:
			r.noteState("", s.position())
		}
	}
	r.stmts(prog.stmts)
	prog.state = r.state
}

// noteState records a finding unless an earlier one (in source order) stands.
func (r *resolver) noteState(name string, pos Position) {
	if r.state == nil || pos.before(r.state.Pos) {
		r.state = &StateWrite{Name: name, Pos: pos}
	}
}

func scalarLiteral(e expr) bool {
	switch ex := e.(type) {
	case *numberLit, *stringLit, *boolLit, *nullLit:
		return true
	case *unaryExpr:
		_, num := ex.x.(*numberLit)
		return ex.op == "-" && num
	}
	return false
}

func (r *resolver) push(info *scopeInfo) {
	r.cur = &scope{info: info, parent: r.cur}
}

func (r *resolver) pop() { r.cur = r.cur.parent }

// declare gives name a slot in the current scope; redeclaring a name reuses
// its slot.
func (r *resolver) declare(name string) int {
	if r.cur == nil {
		if r.globals == nil {
			r.globals = make(map[string]bool)
		}
		r.globals[name] = true
		return globalSlot
	}
	idx, ok := r.cur.names[name]
	if !ok {
		if r.cur.names == nil {
			r.cur.names = make(map[string]int)
		}
		idx = r.cur.info.slots
		r.cur.info.slots++
		r.cur.names[name] = idx
	}
	return idx
}

// collect declares what s (nil for an absent else or for-init) adds to the
// current scope when it executes: s itself if it is a declaration, and the
// arms of if/while, which run in their parent's scope. A scope's names are
// all collected before anything inside it is resolved, so frame sizes — and
// with them hop counts — are final by the time an identifier needs them.
func (r *resolver) collect(s stmt) {
	switch st := s.(type) {
	case *declStmt:
		st.slot = r.declare(st.name)
	case *funcDecl:
		st.slot = r.declare(st.fn.name)
	case *ifStmt:
		r.collect(st.then)
		r.collect(st.elsE)
	case *whileStmt:
		r.collect(st.body)
	}
}

// stmts resolves a statement list that runs in the current scope.
func (r *resolver) stmts(list []stmt) {
	for _, s := range list {
		r.collect(s)
	}
	for _, s := range list {
		r.stmt(s)
	}
}

// stmt resolves s; like expr it accepts nil.
func (r *resolver) stmt(s stmt) {
	switch st := s.(type) {
	case *exprStmt:
		r.expr(st.x)
	case *declStmt:
		r.expr(st.init)
	case *blockStmt:
		r.push(&st.scope)
		r.stmts(st.stmts)
		r.pop()
	case *ifStmt:
		r.expr(st.cond)
		r.stmt(st.then)
		r.stmt(st.elsE)
	case *whileStmt:
		r.expr(st.cond)
		r.stmt(st.body)
	case *forStmt:
		r.push(&st.scope)
		r.collect(st.init)
		r.collect(st.body)
		r.stmt(st.init)
		r.expr(st.cond)
		r.expr(st.post)
		r.stmt(st.body)
		r.pop()
	case *forOfStmt:
		r.expr(st.iter)
		r.push(&st.scope)
		st.slot = r.declare(st.varName)
		r.collect(st.body)
		r.stmt(st.body)
		r.pop()
	case *returnStmt:
		r.expr(st.value)
	case *throwStmt:
		r.expr(st.value)
	case *tryStmt:
		r.stmt(st.body)
		if st.catch != nil {
			r.push(&st.catchScope)
			if st.catchVar != "" {
				st.catchSlot = r.declare(st.catchVar)
			}
			r.stmts(st.catch.stmts)
			r.pop()
		}
		if st.finally != nil {
			r.stmt(st.finally)
		}
	case *switchStmt:
		r.expr(st.subject)
		for _, c := range st.cases {
			r.expr(c.value)
		}
		// Every case body and the default body run in one shared scope.
		var bodies []stmt
		for _, c := range st.cases {
			bodies = append(bodies, c.body...)
		}
		bodies = append(bodies, st.defaultBody...)
		r.push(&st.scope)
		r.stmts(bodies)
		r.pop()
	case *funcDecl:
		r.function(st.fn)
	}
}

func (r *resolver) function(fl *funcLit) {
	for s := r.cur; s != nil && !s.info.captured; s = s.parent {
		s.info.captured = true
	}
	r.push(&fl.scope)
	r.cur.fn = fl
	fl.paramSlots = make([]int, len(fl.params))
	for i, p := range fl.params {
		fl.paramSlots[i] = r.declare(p)
	}
	// The slot is reserved up front so the frame's size never depends on
	// what the body turns out to mention.
	fl.argsSlot = r.declare("arguments")
	r.stmts(fl.body.stmts)
	r.pop()
}

// ident resolves id and reports whether a lookup can fall through every
// scope that declares the name and reach the globals.
func (r *resolver) ident(id *identExpr) bool {
	hops := 0
	for s := r.cur; s != nil; s = s.parent {
		if idx, ok := s.names[id.name]; ok {
			id.refs = append(id.refs, slotRef{hops: hops, idx: idx})
			if s.fn != nil && idx <= s.fn.argsSlot {
				// A parameter or `arguments`: declared on entry to the
				// function, so nothing further out can ever be reached.
				if idx == s.fn.argsSlot {
					s.fn.usesArguments = true
				}
				return false
			}
		}
		if s.info.slots > 0 {
			hops++
		}
	}
	return true
}

// target resolves the left side of an assignment, ++ or --. A bare name is a
// write to module state when the lookup can reach the globals and a global
// of that name can exist: one the module declares, one every context is born
// with (signatures.go), or — no scope declaring it — whatever the host bound.
func (r *resolver) target(e expr) {
	id, ok := e.(*identExpr)
	if !ok {
		r.expr(e)
		return
	}
	if r.ident(id) && (len(id.refs) == 0 || r.globals[id.name] || isAmbientGlobal(id.name)) {
		r.noteState(id.name, id.pos)
	}
}

func isAmbientGlobal(name string) bool {
	_, ok := callSignatures[name]
	return ok
}

// expr resolves e; a nil e (an omitted initializer, condition or return
// value) is a no-op.
func (r *resolver) expr(e expr) {
	switch ex := e.(type) {
	case *numberLit:
		ex.cell = cellOf(ex.value)
	case *stringLit:
		ex.boxed = ex.value
	case *identExpr:
		r.ident(ex)
	case *arrayLit:
		for _, el := range ex.elems {
			r.expr(el)
		}
	case *objectLit:
		for _, f := range ex.fields {
			r.expr(f.value)
		}
	case *funcLit:
		r.function(ex)
	case *unaryExpr:
		ex.opc = unaryOps[ex.op]
		r.expr(ex.x)
	case *binaryExpr:
		ex.opc = binaryOps[ex.op]
		r.expr(ex.x)
		r.expr(ex.y)
	case *logicalExpr:
		ex.opc = binaryOps[ex.op]
		r.expr(ex.x)
		r.expr(ex.y)
	case *condExpr:
		r.expr(ex.cond)
		r.expr(ex.then)
		r.expr(ex.elsE)
	case *assignExpr:
		ex.opc = binaryOps[ex.op[:len(ex.op)-1]]
		r.target(ex.target)
		r.expr(ex.value)
	case *updateExpr:
		ex.opc = unaryOps[ex.op]
		r.target(ex.target)
	case *callExpr:
		r.expr(ex.callee)
		for _, a := range ex.args {
			r.expr(a)
		}
	case *memberExpr:
		r.expr(ex.obj)
	case *indexExpr:
		r.expr(ex.obj)
		r.expr(ex.index)
	}
}
