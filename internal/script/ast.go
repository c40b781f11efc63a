package script

import "sort"

// The AST node hierarchy. Expressions and statements are separate interface
// families; every node carries its source position for error reporting.
//
// Fields under a "set by resolve" comment are annotations the resolve pass
// (resolve.go) writes once, before a program first runs or is analyzed; the
// parser leaves them zero. The static passes (analyze, cost, shapes,
// frameflow) read the scope facts among them — identExpr.refs (does a local
// scope declare this name?), scopeInfo.captured (can a closure reach this
// frame?) and declStmt.slot == globalSlot (is this a module-level binding?) —
// and nothing else: slot indices, hop counts, opcodes and boxed literals are
// the evaluator's layout and may change without the analyses noticing.
//
// Adding a node type: declare it here and give inspect a case for its
// children; TestInspectCoversEveryNodeType then fails until that is done.
// Every pure query over the tree (who declares, who writes, who calls) is a
// callback over inspect and needs nothing more. The evaluators whose every
// case has its own formula are separate type switches and each needs the new
// case too: interp.go, resolver.stmt/expr, analyzer.stmt/expr,
// stmtCost/exprCost, frameFlowChecker.walkStmt/scanExpr, shapeCtx.evalDepth
// and consumeWalker.expr.

type node interface{ position() Position }

// inspect walks the tree under n depth-first in source order, calling pre on
// each node before its children; pre returning false skips that node's
// subtree, which is how a query says "do not descend into nested function
// literals". An absent child (omitted initializer, else arm, for clause) is
// skipped. This is the only place that enumerates a node's children.
func inspect(n node, pre func(node) bool) {
	if n == nil || !pre(n) {
		return
	}
	list := func(stmts []stmt) {
		for _, s := range stmts {
			inspect(s, pre)
		}
	}
	switch x := n.(type) {
	case *numberLit, *stringLit, *boolLit, *nullLit, *identExpr:
	case *arrayLit:
		for _, el := range x.elems {
			inspect(el, pre)
		}
	case *objectLit:
		for _, f := range x.fields {
			inspect(f.value, pre)
		}
	case *funcLit:
		inspect(x.body, pre)
	case *unaryExpr:
		inspect(x.x, pre)
	case *binaryExpr:
		inspect(x.x, pre)
		inspect(x.y, pre)
	case *logicalExpr:
		inspect(x.x, pre)
		inspect(x.y, pre)
	case *condExpr:
		inspect(x.cond, pre)
		inspect(x.then, pre)
		inspect(x.elsE, pre)
	case *assignExpr:
		inspect(x.target, pre)
		inspect(x.value, pre)
	case *updateExpr:
		inspect(x.target, pre)
	case *callExpr:
		inspect(x.callee, pre)
		for _, a := range x.args {
			inspect(a, pre)
		}
	case *memberExpr:
		inspect(x.obj, pre)
	case *indexExpr:
		inspect(x.obj, pre)
		inspect(x.index, pre)

	case *exprStmt:
		inspect(x.x, pre)
	case *declStmt:
		inspect(x.init, pre)
	case *blockStmt:
		list(x.stmts)
	case *ifStmt:
		inspect(x.cond, pre)
		inspect(x.then, pre)
		inspect(x.elsE, pre)
	case *whileStmt:
		inspect(x.cond, pre)
		inspect(x.body, pre)
	case *forStmt:
		inspect(x.init, pre)
		inspect(x.cond, pre)
		inspect(x.post, pre)
		inspect(x.body, pre)
	case *forOfStmt:
		inspect(x.iter, pre)
		inspect(x.body, pre)
	case *returnStmt:
		inspect(x.value, pre)
	case *breakStmt, *continueStmt:
	case *throwStmt:
		inspect(x.value, pre)
	case *tryStmt:
		inspect(x.body, pre)
		// catch and finally are typed pointers: a nil one is not a nil node.
		if x.catch != nil {
			inspect(x.catch, pre)
		}
		if x.finally != nil {
			inspect(x.finally, pre)
		}
	case *switchStmt:
		inspect(x.subject, pre)
		for _, c := range x.cases {
			inspect(c.value, pre)
			list(c.body)
		}
		list(x.defaultBody)
	case *funcDecl:
		inspect(x.fn, pre)
	}
}

// ---- Expressions ----

type expr interface {
	node
	exprNode()
}

type numberLit struct {
	pos   Position
	value float64
	// set by resolve: value as a number cell carrying its one boxed form.
	cell cell
}

type stringLit struct {
	pos   Position
	value string
	// set by resolve: value boxed once.
	boxed Value
}

type boolLit struct {
	pos   Position
	value bool
}

type nullLit struct{ pos Position }

type identExpr struct {
	pos  Position
	name string
	// set by resolve: the enclosing scopes that declare name, innermost
	// first; empty when only a global can match.
	refs []slotRef
	// global caches the global binding once a lookup by name has found it.
	global *slot
}

type arrayLit struct {
	pos   Position
	elems []expr
}

type objectField struct {
	key   string
	value expr
}

type objectLit struct {
	pos    Position
	fields []objectField
}

// funcLit covers both function expressions and (via name) declarations.
type funcLit struct {
	pos    Position
	name   string // empty for anonymous
	params []string
	body   *blockStmt
	// set by resolve: the call frame's layout, each parameter's slot in it,
	// and the slot of the implicit `arguments` array, which is only built
	// when the body mentions it.
	scope         scopeInfo
	paramSlots    []int
	argsSlot      int
	usesArguments bool
}

type unaryExpr struct {
	pos Position
	op  string // "-", "!", "typeof"
	x   expr
	opc opcode // set by resolve
}

type binaryExpr struct {
	pos  Position
	op   string
	x, y expr
	opc  opcode // set by resolve
}

// logicalExpr short-circuits, unlike binaryExpr.
type logicalExpr struct {
	pos  Position
	op   string // "&&", "||"
	x, y expr
	opc  opcode // set by resolve
}

type condExpr struct {
	pos        Position
	cond       expr
	then, elsE expr
}

type assignExpr struct {
	pos    Position
	op     string // "=", "+=", ...
	target expr   // identExpr, memberExpr or indexExpr
	value  expr
	opc    opcode // set by resolve: the binary operator of a compound assignment, opNone for "="
}

// updateExpr is ++/-- (prefix or postfix).
type updateExpr struct {
	pos     Position
	op      string // "++", "--"
	target  expr
	postfix bool
	opc     opcode // set by resolve
}

type callExpr struct {
	pos    Position
	callee expr
	args   []expr
}

type memberExpr struct {
	pos  Position
	obj  expr
	name string
}

type indexExpr struct {
	pos   Position
	obj   expr
	index expr
}

func (e *numberLit) position() Position  { return e.pos }
func (e *stringLit) position() Position  { return e.pos }
func (e *boolLit) position() Position    { return e.pos }
func (e *nullLit) position() Position    { return e.pos }
func (e *identExpr) position() Position  { return e.pos }
func (e *arrayLit) position() Position   { return e.pos }
func (e *objectLit) position() Position  { return e.pos }
func (e *funcLit) position() Position    { return e.pos }
func (e *unaryExpr) position() Position  { return e.pos }
func (e *binaryExpr) position() Position { return e.pos }
func (e *logicalExpr) position() Position {
	return e.pos
}
func (e *condExpr) position() Position   { return e.pos }
func (e *assignExpr) position() Position { return e.pos }
func (e *updateExpr) position() Position { return e.pos }
func (e *callExpr) position() Position   { return e.pos }
func (e *memberExpr) position() Position { return e.pos }
func (e *indexExpr) position() Position  { return e.pos }

func (*numberLit) exprNode()   {}
func (*stringLit) exprNode()   {}
func (*boolLit) exprNode()     {}
func (*nullLit) exprNode()     {}
func (*identExpr) exprNode()   {}
func (*arrayLit) exprNode()    {}
func (*objectLit) exprNode()   {}
func (*funcLit) exprNode()     {}
func (*unaryExpr) exprNode()   {}
func (*binaryExpr) exprNode()  {}
func (*logicalExpr) exprNode() {}
func (*condExpr) exprNode()    {}
func (*assignExpr) exprNode()  {}
func (*updateExpr) exprNode()  {}
func (*callExpr) exprNode()    {}
func (*memberExpr) exprNode()  {}
func (*indexExpr) exprNode()   {}

// ---- Statements ----

type stmt interface {
	node
	stmtNode()
}

type exprStmt struct {
	pos Position
	x   expr
}

// declStmt declares one variable (var/let/const).
type declStmt struct {
	pos      Position
	kind     string // "var", "let", "const"
	name     string
	init     expr // may be nil
	constant bool
	slot     int // set by resolve: slot in the enclosing scope's frame, globalSlot at top level
}

type blockStmt struct {
	pos   Position
	stmts []stmt
	scope scopeInfo // set by resolve
}

type ifStmt struct {
	pos  Position
	cond expr
	then stmt
	elsE stmt // may be nil
}

type whileStmt struct {
	pos  Position
	cond expr
	body stmt
}

type forStmt struct {
	pos  Position
	init stmt // may be nil (declStmt or exprStmt)
	cond expr // may be nil
	post expr // may be nil
	body stmt
	// set by resolve: the scope holding the init declaration, shared by
	// every iteration.
	scope scopeInfo
}

// forOfStmt iterates over array elements or object keys.
type forOfStmt struct {
	pos     Position
	varName string
	iter    expr
	body    stmt
	// set by resolve: the per-iteration scope and varName's slot in it.
	scope scopeInfo
	slot  int
}

type returnStmt struct {
	pos   Position
	value expr // may be nil
}

type breakStmt struct{ pos Position }

type continueStmt struct{ pos Position }

type throwStmt struct {
	pos   Position
	value expr
}

type tryStmt struct {
	pos      Position
	body     *blockStmt
	catchVar string
	catch    *blockStmt // may be nil
	finally  *blockStmt // may be nil
	// set by resolve: the catch clause's scope and catchVar's slot in it.
	catchScope scopeInfo
	catchSlot  int
}

// switchStmt is a switch over strict-equality cases.
type switchStmt struct {
	pos     Position
	subject expr
	cases   []switchCase
	// defaultBody may be nil.
	defaultBody []stmt
	scope       scopeInfo // set by resolve: one scope shared by every case body
}

type switchCase struct {
	value expr
	body  []stmt
}

// funcDecl binds a function literal to a name in the current scope.
type funcDecl struct {
	pos  Position
	fn   *funcLit
	slot int // set by resolve, as declStmt.slot
}

func (s *exprStmt) position() Position     { return s.pos }
func (s *declStmt) position() Position     { return s.pos }
func (s *blockStmt) position() Position    { return s.pos }
func (s *ifStmt) position() Position       { return s.pos }
func (s *whileStmt) position() Position    { return s.pos }
func (s *forStmt) position() Position      { return s.pos }
func (s *forOfStmt) position() Position    { return s.pos }
func (s *returnStmt) position() Position   { return s.pos }
func (s *breakStmt) position() Position    { return s.pos }
func (s *continueStmt) position() Position { return s.pos }
func (s *throwStmt) position() Position    { return s.pos }
func (s *tryStmt) position() Position      { return s.pos }
func (s *switchStmt) position() Position   { return s.pos }
func (s *funcDecl) position() Position     { return s.pos }

func (*exprStmt) stmtNode()     {}
func (*declStmt) stmtNode()     {}
func (*blockStmt) stmtNode()    {}
func (*ifStmt) stmtNode()       {}
func (*whileStmt) stmtNode()    {}
func (*forStmt) stmtNode()      {}
func (*forOfStmt) stmtNode()    {}
func (*returnStmt) stmtNode()   {}
func (*breakStmt) stmtNode()    {}
func (*continueStmt) stmtNode() {}
func (*throwStmt) stmtNode()    {}
func (*tryStmt) stmtNode()      {}
func (*switchStmt) stmtNode()   {}
func (*funcDecl) stmtNode()     {}

// program is a parsed compilation unit.
type program struct {
	stmts []stmt
	// set by resolve: where the module first keeps state between calls; nil
	// for a stateless module.
	state *StateWrite
}

// funcDef is one top-level function definition, `function f() {}` or
// `var f = function() {}`; pos is the defining statement's.
type funcDef struct {
	name string
	fn   *funcLit
	pos  Position
}

// funcTable holds a module's top-level functions by name. A later definition
// of a name replaces an earlier one, as it does when the module loads.
type funcTable map[string]funcDef

func topLevelFuncs(prog *program) funcTable {
	t := make(funcTable)
	for _, s := range prog.stmts {
		switch st := s.(type) {
		case *funcDecl:
			t[st.fn.name] = funcDef{name: st.fn.name, fn: st.fn, pos: st.pos}
		case *declStmt:
			if fn, ok := st.init.(*funcLit); ok {
				t[st.name] = funcDef{name: st.name, fn: fn, pos: st.pos}
			}
		}
	}
	return t
}

// inSourceOrder lists the definitions by position, for the passes whose
// result depends on which function they enter first.
func (t funcTable) inSourceOrder() []funcDef {
	defs := make([]funcDef, 0, len(t))
	for _, d := range t {
		defs = append(defs, d)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].pos.before(defs[j].pos) })
	return defs
}
