package script

import (
	"fmt"
	"sort"
)

// pipevet: a static analyzer for PipeScript module sources. Analyze walks
// the AST produced by parse and reports positioned diagnostics for the
// mistakes that would otherwise surface as RuntimeErrors mid-stream:
// undefined identifiers, straight-line use before declaration, duplicate
// declarations, assignments to consts, arity/type mismatches against the
// shared host/builtin signature table (signatures.go), plus style-level
// warnings (unused variables, unreachable code, assignment-in-condition).
//
// The checker keeps no scopes of its own: it reads the bindings the resolve
// pass (resolve.go) records, the scope model the interpreter runs on.
// Declarations are NOT hoisted and take effect at their execution point,
// var/let/const are all block-scoped, an unbraced if/while arm declares in
// the enclosing scope, and assignment to an undeclared name is an error (no
// implicit globals). References from inside a nested function body to a
// later top-level declaration are legal — the function runs after the whole
// unit loaded — so use-before-declaration only fires when the reference
// executes in the same function as the declaration. One rule is stricter
// than run time: a switch's case bodies share a scope, but each is checked
// as its own, so relying on a sibling case's declaration is reported.

// Severity ranks diagnostics. Errors reject a pipeline at deploy time;
// warnings are advisory and only logged.
type Severity int

const (
	SeverityWarning Severity = iota
	SeverityError
)

func (s Severity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// Diagnostic codes reported by Analyze. internal/core adds the PV1xx range
// for config cross-checks.
const (
	CodeSyntax          = "PV000" // source does not parse
	CodeUndefined       = "PV001" // reference to an undefined identifier
	CodeUseBeforeDecl   = "PV002" // straight-line use before declaration
	CodeUnused          = "PV003" // variable or parameter never read
	CodeUnreachable     = "PV004" // statement after return/throw/break/continue
	CodeCondAssign      = "PV005" // assignment used as a condition
	CodeDuplicate       = "PV006" // duplicate declaration in one scope
	CodeBadCall         = "PV007" // arity/type mismatch against a known signature
	CodeNoHandler       = "PV008" // reachable module defines no event_received
	CodeBadCallback     = "PV009" // lifecycle callback declared with wrong arity
	CodeConstAssign     = "PV010" // assignment to a const
	CodeFrameHeld       = "PV011" // frame held across call_service, neither forwarded nor dropped
	CodeUnboundedLoop   = "PV012" // loop with no statically inferable iteration bound
	CodeUnboundableCost = "PV013" // handler cost unboundable (recursion or dynamic call)
	CodeShapeUnknown    = "PV018" // emitted payload shape unknowable (dynamic construction)
)

// Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      Position
	Code     string
	Severity Severity
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Options configures an Analyze pass.
type Options struct {
	// RequireEventReceived makes a missing event_received definition an
	// error (PV008). core sets it for modules reachable from the source.
	RequireEventReceived bool
}

// TargetRef records a literal call_service / call_module target and where
// it appears, for config cross-checking.
type TargetRef struct {
	Name string
	Pos  Position
}

// Facts summarizes what the analyzer learned about a module beyond
// diagnostics; internal/core cross-checks them against the ModuleConfig.
type Facts struct {
	// ServiceTargets / ModuleTargets list literal first arguments of
	// call_service / call_module call sites.
	ServiceTargets []TargetRef
	ModuleTargets  []TargetRef
	// DynamicServiceTargets / DynamicModuleTargets count call sites whose
	// target is computed at runtime; when non-zero, "declared but never
	// referenced" warnings are suppressed.
	DynamicServiceTargets int
	DynamicModuleTargets  int
	// HasEventReceived / HasInit report whether the module defines the
	// lifecycle callbacks at the top level.
	HasEventReceived bool
	HasInit          bool
	// Stateless reports that the module provably keeps nothing between
	// events (resolve.go states the rule), so the device runtime may run it
	// on several isolated contexts at once; otherwise State is the first
	// global it declares mutable or writes, or the first statement it runs
	// at load.
	Stateless bool
	State     StateWrite
	// ReadOnly reports that the module is message-read-only (resolve.go
	// states the rule), so a local edge may share a payload's nested values
	// with it instead of copying them; otherwise Write is the first
	// container write that may land outside a private container.
	ReadOnly bool
	Write    Position
}

// Replication words the Stateless verdict the way `videopipe -lint` prints
// it: "replicable", or "single-context: " and the state that pins the module
// to one context.
func (f Facts) Replication() string {
	if f.Stateless {
		return "replicable"
	}
	return "single-context: " + f.State.String()
}

// Payloads words the ReadOnly verdict: "shares payloads", or "copies
// payloads: " and the first write that makes the module a writer.
func (f Facts) Payloads() string {
	if f.ReadOnly {
		return "shares payloads"
	}
	return "copies payloads: writes a container it does not own at " + f.Write.String()
}

// Verdict joins the two verdicts the device runtime acts on, Replication
// and Payloads, the way `videopipe -lint` prints them.
func (f Facts) Verdict() string { return f.Replication() + "; " + f.Payloads() }

// Report is the result of one Analyze pass.
type Report struct {
	Diagnostics []Diagnostic
	Facts       Facts
	// Cost is the pipecost result: per-handler worst-case instruction and
	// allocation bounds (cost.go). Empty when the source does not parse.
	Cost CostReport
	// Shapes is the pipetype result: produced payload shapes per
	// call_module target and the consumed shape of event_received
	// (shapes.go). Empty when the source does not parse.
	Shapes ShapeReport
}

// Analyze parses src and runs the pipevet checks over it. A syntax error
// yields a single PV000 diagnostic. Diagnostics come back sorted by
// position.
func Analyze(src string, opts Options) Report {
	prog, err := parseResolved(src)
	if err != nil {
		var rep Report
		if se, ok := err.(*SyntaxError); ok {
			rep.Diagnostics = []Diagnostic{{Pos: se.Pos, Code: CodeSyntax, Severity: SeverityError, Message: se.Msg}}
		} else {
			rep.Diagnostics = []Diagnostic{{Code: CodeSyntax, Severity: SeverityError, Message: err.Error()}}
		}
		return rep
	}

	a := &analyzer{opts: opts}
	funcs := topLevelFuncs(prog)
	names := newCallees(prog, funcs)
	a.run(prog, names)
	if prog.state == nil {
		a.facts.Stateless = true
	} else {
		a.facts.State = *prog.state
	}
	if prog.write == nil {
		a.facts.ReadOnly = true
	} else {
		a.facts.Write = *prog.write
	}

	// pipecost: worst-case instruction/allocation bounds per handler, with
	// PV012/PV013 diagnostics for what cannot be bounded (cost.go).
	cost, costDiags := costPass(prog, names)
	a.diags = append(a.diags, costDiags...)

	// pipetype: produced/consumed event shapes per module, with PV018 for
	// payloads that degrade to top (shapes.go).
	shapes, shapeDiags := shapePass(prog, names)
	a.diags = append(a.diags, shapeDiags...)

	sort.SliceStable(a.diags, func(i, j int) bool { return a.diags[i].Pos.before(a.diags[j].Pos) })
	return Report{Diagnostics: a.diags, Facts: a.facts, Cost: cost, Shapes: shapes}
}

// parseResolved is the static passes' front end: parse, then the same
// resolve pass Load runs, so an analysis asks its scope questions of the
// annotations the interpreter itself trusts (ast.go lists which).
func parseResolved(src string) (*program, error) {
	prog, err := parse(src)
	if err == nil {
		resolve(prog)
	}
	return prog, err
}

// callMemo computes one result per call-graph node, depth-first: a node is
// unvisited, in progress or done. Asking for a node that is in progress means
// the call graph has a cycle through it; the caller says what recursion is
// worth (unbounded, top, dynamic) and that answer is built only then and is
// not cached.
type callMemo[K comparable, V any] struct {
	done       map[K]V
	inProgress map[K]bool
}

func (m *callMemo[K, V]) visit(key K, recursion, compute func() V) V {
	if v, ok := m.done[key]; ok {
		return v
	}
	if m.inProgress[key] {
		return recursion()
	}
	if m.done == nil {
		m.done, m.inProgress = make(map[K]V), make(map[K]bool)
	}
	m.inProgress[key] = true
	v := compute()
	delete(m.inProgress, key)
	m.done[key] = v
	return v
}

// ---- checks ----

type analyzer struct {
	opts  Options
	diags []Diagnostic
	// calls holds the PV007 findings until the scope findings are in: an
	// argument that is a function literal shares its position with the
	// literal's parameters.
	calls []Diagnostic
	facts Facts
}

func (a *analyzer) diag(pos Position, code string, sev Severity, msg string) {
	a.diags = append(a.diags, Diagnostic{Pos: pos, Code: code, Severity: sev, Message: msg})
}

// run reports the scope findings from the resolver's bindings and the rest
// from one walk. Diagnostics are sorted by position afterwards, stably, so
// the order they are reported in here settles ties between findings at one
// position: a redeclaration, then unreachable code, then what an identifier
// there does, then a parameter's redeclaration, then unused declarations,
// then calls.
func (a *analyzer) run(prog *program, names *callees) {
	a.redeclared(prog.decls, false)
	a.unreachable(prog.stmts)
	for _, s := range prog.stmts {
		inspect(s, a.visit)
	}
	a.redeclared(prog.decls, true)
	a.unused(prog.decls)
	a.diags = append(a.diags, a.calls...)

	for _, d := range names.funcs {
		a.noteCallback(d.name, len(d.fn.params), d.pos)
	}
	if a.opts.RequireEventReceived && !a.facts.HasEventReceived {
		a.diag(Position{Line: 1, Col: 1}, CodeNoHandler, SeverityError,
			"module defines no event_received(message) handler but is reachable from the source")
	}

	a.frameFlow(names) // PV011: frame held across call_service (frameflow.go)
}

// noteCallback records lifecycle-callback definitions and checks their
// declared arity against the callback signature (PV009).
func (a *analyzer) noteCallback(name string, nparams int, pos Position) {
	switch name {
	case "event_received":
		a.facts.HasEventReceived = true
	case "init":
		a.facts.HasInit = true
	default:
		return
	}
	sig, ok := HostSignature(name)
	if !ok || !sig.Callback {
		return
	}
	if nparams < sig.Min || (sig.Max >= 0 && nparams > sig.Max) {
		a.diag(pos, CodeBadCallback, SeverityWarning,
			fmt.Sprintf("%s is declared with %d parameters; the runtime passes %s", name, nparams, callbackArgs(sig)))
	}
}

func callbackArgs(sig Signature) string {
	if sig.Max == 0 {
		return "none"
	}
	return fmt.Sprintf("at most %d", sig.Max)
}

// redeclared reports each declaration of a name its scope already declares
// (PV006), the parameters' or every other kind's. The implicit `arguments`
// neither counts nor clashes.
func (a *analyzer) redeclared(decls []*declSite, params bool) {
	for _, d := range decls {
		if (d.kind == declParam) != params || d.prev == nil || d.kind == declImplicit || d.prev.kind == declImplicit {
			continue
		}
		a.diag(d.pos, CodeDuplicate, SeverityError,
			fmt.Sprintf("%q is already declared in this scope (first at %s)", d.b.name, d.prev.pos))
	}
}

// unused reports the variables and parameters never read (PV003). Reads
// land on a scope's latest declaration of a name, so an earlier one is never
// read. Function declarations, catch and loop variables and `arguments` are
// exempt.
func (a *analyzer) unused(decls []*declSite) {
	for _, d := range decls {
		if d.kind > declParam || d.kind == declFunc || (d == d.b.last && d.b.reads > 0) {
			continue
		}
		noun := "variable"
		if d.kind == declParam {
			noun = "parameter"
		}
		a.diag(d.pos, CodeUnused, SeverityWarning,
			fmt.Sprintf("%s %q is declared and never read", noun, d.b.name))
	}
}

// unreachable flags the first statement of a list that follows one which
// always leaves it (PV004), once per run of such statements.
func (a *analyzer) unreachable(list []stmt) {
	terminated := false
	for _, s := range list {
		if terminated {
			a.diag(s.position(), CodeUnreachable, SeverityWarning,
				"unreachable code (follows return/throw/break/continue)")
			terminated = false // report once per list, keep checking the rest
		}
		if terminates(s) {
			terminated = true
		}
	}
}

// terminates reports whether a statement unconditionally leaves the
// enclosing statement list.
func terminates(s stmt) bool {
	switch st := s.(type) {
	case *returnStmt, *throwStmt, *breakStmt, *continueStmt:
		return true
	case *blockStmt:
		for _, inner := range st.stmts {
			if terminates(inner) {
				return true
			}
		}
	case *ifStmt:
		return st.elsE != nil && terminates(st.then) && terminates(st.elsE)
	}
	return false
}

// visit is the walk's inspect callback. It visits a for loop's clauses, an
// assignment's sides and a call's parts in the order they run, which is the
// order call targets are recorded in.
func (a *analyzer) visit(n node) bool {
	switch x := n.(type) {
	case *blockStmt:
		a.unreachable(x.stmts)
	case *switchStmt:
		for _, c := range x.cases {
			a.unreachable(c.body)
		}
		a.unreachable(x.defaultBody)
	case *ifStmt:
		a.condAssign(x.cond)
	case *whileStmt:
		a.condAssign(x.cond)
	case *condExpr:
		a.condAssign(x.cond)
	case *forStmt:
		a.condAssign(x.cond)
		inspect(x.init, a.visit)
		inspect(x.cond, a.visit)
		inspect(x.body, a.visit)
		inspect(x.post, a.visit)
		return false
	case *identExpr:
		a.use(x, "used")
	case *assignExpr:
		inspect(x.value, a.visit)
		a.target(x.target)
		return false
	case *updateExpr:
		a.target(x.target)
		return false
	case *callExpr:
		for _, arg := range x.args {
			inspect(arg, a.visit)
		}
		inspect(x.callee, a.visit)
		a.call(x)
		return false
	}
	return true
}

// condAssign flags a plain assignment used as a condition (PV005).
func (a *analyzer) condAssign(e expr) {
	if as, ok := e.(*assignExpr); ok && as.op == "=" {
		a.diag(as.pos, CodeCondAssign, SeverityWarning,
			"assignment in condition (use == to compare)")
	}
}

// builtin returns the signature-table entry an identifier no scope declares
// refers to.
func (a *analyzer) builtin(name string) (Signature, bool) {
	sig, ok := callSignatures[name]
	return sig, ok && !sig.Callback // init/event_received are defined by the module, not for it
}

// use checks an identifier against its binding: none and no builtin is
// PV001, one not yet declared where it runs is PV002. verb is "used" or
// "assigned".
func (a *analyzer) use(id *identExpr, verb string) {
	b := id.bind
	_, builtin := a.builtin(id.name)
	switch {
	case b == nil && !builtin && verb == "used":
		a.diag(id.pos, CodeUndefined, SeverityError, fmt.Sprintf("%q is not defined", id.name))
	case b == nil && !builtin:
		a.diag(id.pos, CodeUndefined, SeverityError,
			fmt.Sprintf("%q is not defined (PipeScript has no implicit globals; declare it with var)", id.name))
	case b != nil && id.early:
		a.diag(id.pos, CodeUseBeforeDecl, SeverityError,
			fmt.Sprintf("%q is %s before its declaration at %s", id.name, verb, b.last.pos))
	}
}

// target checks the left side of an assignment, ++ or --: a bare name must
// be declared and not const (PV010).
func (a *analyzer) target(t expr) {
	id, ok := t.(*identExpr)
	if !ok {
		inspect(t, a.visit)
		return
	}
	if b := id.bind; b != nil && b.last.kind == declConst {
		a.diag(id.pos, CodeConstAssign, SeverityError,
			fmt.Sprintf("cannot assign to constant %q (declared at %s)", id.name, b.last.pos))
	}
	a.use(id, "assigned")
}

// call checks a call site. When the callee is a signature-table builtin,
// arity and literal argument types are checked (PV007), and call_service /
// call_module literal targets are recorded as Facts.
func (a *analyzer) call(ex *callExpr) {
	id, ok := ex.callee.(*identExpr)
	if !ok || id.bind != nil {
		return
	}
	sig, ok := a.builtin(id.name)
	if !ok {
		return
	}

	n := len(ex.args)
	switch {
	case n < sig.Min || (sig.Max >= 0 && n > sig.Max):
		a.calls = append(a.calls, Diagnostic{Pos: ex.pos, Code: CodeBadCall, Severity: SeverityError,
			Message: fmt.Sprintf("%s expects %s, got %d", sig.Name, arityWord(sig), n)})
	default:
		for i, arg := range ex.args {
			var want string
			if i < len(sig.Params) {
				want = sig.Params[i].Type
			} else {
				want = sig.Rest
			}
			if want == "" || want == "any" {
				continue
			}
			got := litType(arg)
			if got == "" {
				continue // not a literal; checked at runtime
			}
			if got == "null" && i >= sig.Min {
				continue
			}
			if !typeAllowed(want, got) {
				name := fmt.Sprintf("argument %d", i+1)
				if i < len(sig.Params) {
					name = sig.Params[i].Name
				}
				a.calls = append(a.calls, Diagnostic{Pos: arg.position(), Code: CodeBadCall, Severity: SeverityError,
					Message: fmt.Sprintf("%s: %s must be %s, got %s", sig.Name, name, withArticle(want), got)})
			}
		}
	}

	switch id.name {
	case "call_service":
		a.recordTarget(ex, &a.facts.ServiceTargets, &a.facts.DynamicServiceTargets)
	case "call_module":
		a.recordTarget(ex, &a.facts.ModuleTargets, &a.facts.DynamicModuleTargets)
	}
}

func (a *analyzer) recordTarget(ex *callExpr, refs *[]TargetRef, dynamic *int) {
	if len(ex.args) == 0 {
		return
	}
	if s, ok := ex.args[0].(*stringLit); ok {
		*refs = append(*refs, TargetRef{Name: s.value, Pos: s.pos})
	} else {
		*dynamic++
	}
}

// arityWord renders a signature's accepted argument count for messages.
func arityWord(sig Signature) string {
	switch {
	case sig.Max < 0:
		return fmt.Sprintf("at least %d arguments", sig.Min)
	case sig.Min == sig.Max && sig.Min == 0:
		return "no arguments"
	case sig.Min == sig.Max && sig.Min == 1:
		return "1 argument"
	case sig.Min == sig.Max:
		return fmt.Sprintf("%d arguments", sig.Min)
	default:
		return fmt.Sprintf("%d to %d arguments", sig.Min, sig.Max)
	}
}

// litType returns the PipeScript type of a literal expression, or "" when
// the value is only known at runtime.
func litType(e expr) string {
	switch ex := e.(type) {
	case *numberLit:
		return "number"
	case *stringLit:
		return "string"
	case *boolLit:
		return "boolean"
	case *nullLit:
		return "null"
	case *arrayLit:
		return "array"
	case *objectLit:
		return "object"
	case *funcLit:
		return "function"
	case *unaryExpr:
		if ex.op == "-" {
			if litType(ex.x) == "number" {
				return "number"
			}
		}
		if ex.op == "!" {
			return "boolean"
		}
		if ex.op == "typeof" {
			return "string"
		}
	}
	return ""
}
