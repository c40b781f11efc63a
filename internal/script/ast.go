package script

// The AST node hierarchy. Expressions and statements are separate interface
// families; every node carries its source position for error reporting.
//
// Fields under a "set by resolve" comment are annotations the interpreter's
// resolve pass (resolve.go) writes once before a program first runs. The
// parser leaves them zero and the static passes (analyze, cost, shapes,
// frameflow) never read them.

type node interface{ position() Position }

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
}
