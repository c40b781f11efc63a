package script

import "fmt"

// The resolve pass: one walk over a freshly parsed program, run by Load
// before the first statement executes, that annotates the AST in place
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

// binding is one name declared in one scope, as the static passes see it.
// Every declaration, identifier and write below points at its binding, so a
// pass asks the binding instead of matching names. pipevet reads each case
// body of a switch as a scope of its own, so there every body that declares
// a name has its own binding of the one slot the interpreter shares.
type binding struct {
	name string
	last *declSite // the latest declaration in the scope
	fn   *funcLit  // the function whose frame holds it; nil at module level
	// reads counts the reads (a compound assignment's too) whose innermost
	// binding this is; writes counts the assignments, ++ and -- that can land
	// on it — any candidate, not only the innermost, since a write that runs
	// before an inner declaration hits the outer binding.
	reads, writes int
	// reached says the walk has passed the scope's latest declaration of
	// the name: a statement once it has run, a parameter, catch or loop
	// variable or `arguments` on entry.
	reached bool
	// shared says the binding is no private container (see resolve): it
	// can hold something other than a fresh array or object literal, or its
	// value is taken somewhere it can be kept.
	shared bool
}

// redeclared reports whether the scope declares the name more than once;
// the implicit `arguments` does not count.
func (b *binding) redeclared() bool {
	return b.last.prev != nil && b.last.prev.kind != declImplicit
}

// declSite is one declaration of a binding; prev is the scope's earlier
// declaration of the same name, if any.
type declSite struct {
	b    *binding
	pos  Position
	kind declKind
	prev *declSite
}

// declKind says how a declaration introduces its name.
type declKind uint8

const (
	declVar declKind = iota // var or let
	declConst
	declFunc
	declParam    // the kinds from here on are reached on entry
	declBound    // a catch or for-of variable
	declImplicit // a function's `arguments`
)

// scope is the resolver's view of one lexical scope while it is open.
type scope struct {
	info   *scopeInfo // the owning node's annotation, filled in as names are declared
	names  map[string]int
	binds  map[string]*binding
	cases  []*scope // every case body's scope, on each case body of a switch
	parent *scope   // enclosing scope, continuing through function boundaries
	fn     *funcLit // set on a function's own scope
}

type resolver struct {
	cur *scope   // nil at the top level, where declarations bind globals
	fn  *funcLit // the function being resolved, nil at module level
	// globals holds the bindings the program declares at the top level;
	// state is the first place found so far where it keeps state between
	// calls.
	globals map[string]*binding
	decls   []*declSite
	written map[string]bool
	state   *StateWrite
	// uses holds the identifiers a container write lands on and the ones
	// a builtin or host call reads without taking, to be judged once every
	// binding is known; write is the first container write found that may
	// land outside a private container.
	uses  []callUse
	write *Position
	// services is set once an identifier can resolve to the global
	// call_service.
	services bool
	// lends holds the object literals passed straight to a host call that
	// borrows them (Signature.Lends), marked once it is known that the
	// module never rebinds the call's name.
	lends []lentLiteral
}

// lentLiteral is an object literal written as the borrowed argument of a
// call through the name callee.
type lentLiteral struct {
	lit    *objectLit
	callee string
}

// operandUse is an identifier resolved where its value is read: ambient
// says the lookup can land on a builtin or host binding — one every context
// is born with, or, no scope declaring the name, whatever the host bound
// (the rule target applies to state).
type operandUse struct {
	id      *identExpr
	ambient bool
}

// callUse is one operand a container write lands on (write), or one that
// a builtin or host call reads without keeping; callee names the call (""
// for an assignment), whose exemption holds only while the module never
// rebinds that name.
type callUse struct {
	operandUse
	callee string
	write  bool
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
//
// The same walk decides whether the module is message-read-only (prog.write
// stays nil): every container write in it lands directly in a container the
// module owns privately, so a value it is handed, or hands on, is never
// written by it and may be shared with other contexts. Container writes are
// member and index assignments, ++, -- and compound assignments on a member,
// a builtin that changes an argument in place and call_service, which lends
// its message with frame_ref taken out (Signature.Writes); a write into a
// fresh literal is harmless. A private container is a binding only ever
// bound to fresh array or object literals whose value is read only through
// a member or index, an operator, a test, len, for-of, or as a field of
// call_service's literal message: it is never passed to a function, stored
// in another container, returned or handed to call_module, and is bound to
// a literal by an assignment only where the assignment's value is
// discarded.
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
	r.judgeWrites()
	prog.state, prog.decls, prog.globals, prog.written = r.state, r.decls, r.globals, r.written
	prog.write, prog.services = r.write, r.services
}

// judgeWrites settles the read-only verdict once every binding is known: a
// call the module rebinds is its own function, which keeps what it is given,
// and a write through an identifier is the first finding unless every
// binding it can land on is a private container.
func (r *resolver) judgeWrites() {
	for _, u := range r.uses {
		if u.callee != "" && r.written[u.callee] {
			r.escape(u.operandUse)
		}
	}
	for _, u := range r.uses {
		if u.write && !r.private(u.operandUse) {
			r.noteWrite(u.id.pos)
		}
	}
	for _, l := range r.lends {
		l.lit.lent = !r.written[l.callee]
	}
}

// private reports whether every binding u can land on is a private
// container.
func (r *resolver) private(u operandUse) bool {
	if u.ambient || len(u.id.binds) == 0 {
		return false
	}
	for _, b := range u.id.binds {
		if b.shared {
			return false
		}
	}
	return true
}

// noteWrite records a container write that may land outside a private
// container, unless an earlier one (in source order) stands.
func (r *resolver) noteWrite(pos Position) {
	if r.write == nil || pos.before(*r.write) {
		r.write = &pos
	}
}

// operand resolves e, where the value of an identifier is read but not yet
// taken: the caller says whether it escapes.
func (r *resolver) operand(e expr) operandUse {
	id, ok := e.(*identExpr)
	if !ok {
		r.expr(e)
		return operandUse{}
	}
	global := r.ident(id, true, false)
	ambient := global && r.globals[id.name] == nil && (len(id.refs) == 0 || isAmbientGlobal(id.name))
	return operandUse{id: id, ambient: ambient}
}

// escape takes u's value where it can be kept: its bindings are no private
// containers, and a builtin or host call that writes its arguments, once
// taken as a value, can be called through any name.
func (r *resolver) escape(u operandUse) {
	if u.id == nil {
		return
	}
	for _, b := range u.id.binds {
		b.shared = true
	}
	if u.ambient && callSignatures[u.id.name].Writes > 0 {
		r.noteWrite(u.id.pos)
	}
}

// lands records a container write into e, resolved as u; callee names the
// builtin or host call making it, "" for an assignment.
func (r *resolver) lands(e expr, u operandUse, callee string) {
	switch {
	case u.id != nil:
		r.uses = append(r.uses, callUse{operandUse: u, callee: callee, write: true})
	case !freshLiteral(e):
		r.noteWrite(start(e))
	}
}

// start is where the source text of e begins.
func start(e expr) Position {
	for {
		switch x := e.(type) {
		case *memberExpr:
			e = x.obj
		case *indexExpr:
			e = x.obj
		case *callExpr:
			e = x.callee
		default:
			return e.position()
		}
	}
}

func freshLiteral(e expr) bool {
	switch e.(type) {
	case *arrayLit, *objectLit:
		return true
	}
	return false
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

// declare gives name a slot in the current scope, and a declaration of its
// binding there; redeclaring a name reuses its slot and binding.
func (r *resolver) declare(name string, pos Position, kind declKind) (int, *binding) {
	idx := globalSlot
	binds := &r.globals
	if r.cur != nil {
		var ok bool
		if idx, ok = r.cur.names[name]; !ok {
			if r.cur.names == nil {
				r.cur.names = make(map[string]int)
			}
			idx = r.cur.info.slots
			r.cur.info.slots++
			r.cur.names[name] = idx
		}
		binds = &r.cur.binds
	}
	b := (*binds)[name]
	if b == nil {
		if *binds == nil {
			*binds = make(map[string]*binding)
		}
		b = &binding{name: name, fn: r.fn}
		(*binds)[name] = b
		if r.fn != nil {
			r.fn.binds = append(r.fn.binds, b)
		}
	}
	b.last = &declSite{b: b, pos: pos, kind: kind, prev: b.last}
	b.reached = kind >= declParam
	b.shared = b.shared || kind >= declFunc
	r.decls = append(r.decls, b.last)
	return idx, b
}

// collect declares what s (nil for an absent else or for-init) adds to the
// current scope when it executes: s itself if it is a declaration, and the
// arms of if/while, which run in their parent's scope. A scope's names are
// all collected before anything inside it is resolved, so frame sizes — and
// with them hop counts — are final by the time an identifier needs them.
func (r *resolver) collect(s stmt) {
	switch st := s.(type) {
	case *declStmt:
		kind := declVar
		if st.constant {
			kind = declConst
		}
		st.slot, st.b = r.declare(st.name, st.pos, kind)
	case *funcDecl:
		st.slot, st.b = r.declare(st.fn.name, st.pos, declFunc)
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
		r.effect(st.x)
	case *declStmt:
		r.expr(st.init)
		st.b.reached = true
		st.b.shared = st.b.shared || !freshLiteral(st.init)
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
		r.stmt(st.body)
		r.effect(st.post)
		r.pop()
	case *forOfStmt:
		r.operand(st.iter)
		r.push(&st.scope)
		st.slot, st.b = r.declare(st.varName, st.pos, declBound)
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
				st.catchSlot, st.catchB = r.declare(st.catchVar, st.catch.pos, declBound)
			}
			r.stmts(st.catch.stmts)
			r.pop()
		}
		if st.finally != nil {
			r.stmt(st.finally)
		}
	case *switchStmt:
		r.expr(st.subject)
		// Every case body and the default body run in one shared scope — one
		// frame, one name-to-slot map — but each gets a resolver scope, and
		// with it bindings, of its own.
		bodies := make([][]stmt, 0, len(st.cases)+1)
		for _, c := range st.cases {
			r.expr(c.value)
			bodies = append(bodies, c.body)
		}
		bodies = append(bodies, st.defaultBody)
		cases, names := make([]*scope, len(bodies)), make(map[string]int)
		for i := range cases {
			cases[i] = &scope{info: &st.scope, names: names, cases: cases, parent: r.cur}
		}
		for _, visit := range []func(stmt){r.collect, r.stmt} {
			for i, body := range bodies {
				r.cur = cases[i]
				for _, s := range body {
					visit(s)
				}
				r.pop()
			}
		}
	case *funcDecl:
		st.b.reached = true
		r.function(st.fn)
	}
}

func (r *resolver) function(fl *funcLit) {
	for s := r.cur; s != nil && !s.info.captured; s = s.parent {
		s.info.captured = true
	}
	outer := r.fn
	r.fn = fl
	r.push(&fl.scope)
	r.cur.fn = fl
	fl.paramSlots = make([]int, len(fl.params))
	fl.paramBinds = make([]*binding, len(fl.params))
	for i, p := range fl.params {
		fl.paramSlots[i], fl.paramBinds[i] = r.declare(p, fl.pos, declParam)
	}
	// The slot is reserved up front so the frame's size never depends on
	// what the body turns out to mention.
	fl.argsSlot, _ = r.declare("arguments", fl.pos, declImplicit)
	r.stmts(fl.body.stmts)
	r.pop()
	r.fn = outer
}

// ident resolves id, records its bindings and whether it reads or writes
// them (a compound assignment does both), and reports whether a lookup can
// fall through every scope that declares the name and reach the globals.
func (r *resolver) ident(id *identExpr, reads, writes bool) bool {
	global := r.locals(id)
	if global {
		id.land(r.globals[id.name], true)
		r.services = r.services || id.name == "call_service"
	}
	if b := id.bind; b != nil {
		if reads {
			b.reads++
		}
		id.early = !b.reached && b.fn == r.fn
	}
	if writes {
		for _, b := range id.binds {
			b.writes++
		}
	}
	return global
}

// locals appends to id's refs and bindings every enclosing scope that
// declares its name. In a switch, the slot a case body's binding names may
// hold what a sibling body declared, so their bindings follow it.
func (r *resolver) locals(id *identExpr) bool {
	hops := 0
	for s := r.cur; s != nil; s = s.parent {
		if idx, ok := s.names[id.name]; ok {
			id.refs = append(id.refs, slotRef{hops: hops, idx: idx})
			id.land(s.binds[id.name], true)
			for _, c := range s.cases {
				if c != s {
					id.land(c.binds[id.name], false)
				}
			}
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

// land records that id can land on b, if there is one; visible marks a
// binding pipevet's scopes see.
func (id *identExpr) land(b *binding, visible bool) {
	if b != nil {
		id.binds = append(id.binds, b)
		if visible && id.bind == nil {
			id.bind = b
		}
	}
}

// target resolves the left side of an assignment, ++ or --; fresh says the
// value bound is a fresh array or object literal. A member or index target is
// a container write into its object. A bare name is a write to module state
// when the lookup can reach the globals and a global of that name can exist:
// one the module declares, one every context is born with (signatures.go),
// or — no scope declaring it — whatever the host bound.
func (r *resolver) target(e expr, reads, fresh bool) {
	switch x := e.(type) {
	case *memberExpr:
		r.lands(x.obj, r.operand(x.obj), "")
		return
	case *indexExpr:
		u := r.operand(x.obj)
		r.expr(x.index)
		r.lands(x.obj, u, "")
		return
	}
	id := e.(*identExpr) // the parser admits no other target
	global := r.ident(id, reads, true)
	if !fresh {
		for _, b := range id.binds {
			b.shared = true
		}
	}
	if !global {
		return
	}
	if r.written == nil {
		r.written = make(map[string]bool)
	}
	r.written[id.name] = true
	if len(id.refs) == 0 || r.globals[id.name] != nil || isAmbientGlobal(id.name) {
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
		r.escape(r.operand(ex))
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
	case *unaryExpr: // an operator's result is a new scalar or string
		ex.opc = unaryOps[ex.op]
		r.operand(ex.x)
	case *binaryExpr:
		ex.opc = binaryOps[ex.op]
		r.operand(ex.x)
		r.operand(ex.y)
	case *logicalExpr:
		ex.opc = binaryOps[ex.op]
		r.expr(ex.x)
		r.expr(ex.y)
	case *condExpr:
		r.operand(ex.cond)
		r.expr(ex.then)
		r.expr(ex.elsE)
	case *assignExpr:
		r.assign(ex, false)
	case *updateExpr:
		ex.opc = unaryOps[ex.op]
		r.target(ex.target, true, false)
	case *callExpr:
		r.call(ex)
	case *memberExpr:
		r.operand(ex.obj)
	case *indexExpr:
		r.operand(ex.obj)
		r.expr(ex.index)
	}
}

// effect resolves e, whose value is discarded: a statement of its own or a
// for loop's step.
func (r *resolver) effect(e expr) {
	if ex, ok := e.(*assignExpr); ok {
		r.assign(ex, true)
		return
	}
	r.expr(e)
}

// assign resolves an assignment. Its value is the value bound, so a fresh
// literal stays the target's own only where that value is discarded.
func (r *resolver) assign(ex *assignExpr, discarded bool) {
	ex.opc = binaryOps[ex.op[:len(ex.op)-1]]
	r.target(ex.target, ex.opc != opNone, discarded && ex.opc == opNone && freshLiteral(ex.value))
	r.expr(ex.value)
}

// call resolves a call. Calling a name does not take its value. A builtin or
// host call that writes an argument in place (Signature.Writes) is a
// container write into it; len's argument and the fields of call_service's
// literal message are read without being kept; any other argument escapes,
// and so does a written one that a function of the module's own may receive
// instead or that the call hands back (Signature.Aliases).
func (r *resolver) call(ex *callExpr) {
	callee := r.operand(ex.callee)
	var name string
	var sig Signature
	only := false // the call can reach nothing but the builtin or host binding
	if callee.ambient {
		name, sig = callee.id.name, callSignatures[callee.id.name]
		only = len(callee.id.binds) == 0
	}
	for i, a := range ex.args {
		if lit, ok := a.(*objectLit); ok && only && sig.Lends == i+1 {
			r.lends = append(r.lends, lentLiteral{lit, name})
		}
		if lit, ok := a.(*objectLit); ok && only && name == "call_service" && i == 1 {
			for _, f := range lit.fields {
				r.uses = append(r.uses, callUse{operandUse: r.operand(f.value), callee: name})
			}
			continue
		}
		u := r.operand(a)
		switch {
		case sig.Writes == i+1:
			r.lands(a, u, name)
			if !only || sig.Aliases {
				r.escape(u)
			}
		case only && name == "len":
			r.uses = append(r.uses, callUse{operandUse: u, callee: name})
		default:
			r.escape(u)
		}
	}
}
