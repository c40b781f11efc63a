package script

// pipecost: a static worst-case cost analysis over PipeScript module ASTs.
//
// For every lifecycle entry point — the module's top-level load, init() and
// event_received() — the pass computes a sound upper bound on the number of
// interpreter instructions one invocation can execute. "Instruction" means
// exactly what the interpreter meters: one step per statement executed, one
// per expression evaluated, and one per loop-iteration check (interp.go
// charges in.step at the same points), so the static bound is directly comparable to the runtime
// counter exposed by Context.LastInstructions and the
// `script.<module>.instructions` meter. The soundness contract — static
// bound >= measured count for every handler — is enforced by the golden
// test at the repository root (cost_soundness_test.go).
//
// The analysis is an abstract interpretation, one domain of the forward
// walk (flow.go) that threads a bound through code in evaluation order:
//
//   - Straight-line code sums; branches (if, ?:, switch) take the
//     maximum over arms, which upper-bounds any single path.
//   - Counted `for` loops with a constant-foldable bound, constant step and
//     an induction variable that only the loop's own update can write get a
//     closed-form iteration count; `for-of` over literals or range(k)
//     likewise. Everything else is statically unbounded and reported as
//     PV012 (the runtime step budget still caps it).
//   - Calls to the module's own top-level functions are inlined through a
//     memoized call-graph traversal; cycles are recursion, reported as
//     PV013 and unbounded. Calls through dynamic function values (locals,
//     parameters, members) are unboundable, also PV013.
//   - Scope questions — is this callee, iterable or induction variable a
//     local? — are answered by the resolve pass's annotations, the same
//     ones the interpreter runs on, never by a name set of the pass's own.
//   - A host binding costs only the call expression, its callee and its
//     arguments. A builtin is not free: it adds its price (stdlib.go), the
//     steps the interpreter charges before its work, bounded from the sizes
//     of its arguments that the pass can infer — a literal's, range(k)'s,
//     keys or values of an object literal. Where it cannot, the builtin's
//     call is reported as PV012 and the handler is unbounded.
//   - A string comparison or keyed lookup adds a step per cmpBlock bytes it
//     can read (reads). The pass sizes string literals only, and takes any
//     other string to be shorter than cmpBlock: a handler comparing two
//     long strings built at run time can measure above its bound. That is
//     the one assumption the bound rests on; the step budget still stops
//     such a handler at run time.
//
// Both PV012 and PV013 are warnings: an unbounded handler is legal (the
// sandbox step budget protects the device) but opaque to the
// instruction-limit governance this analysis feeds (PV014).

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Handler names a CostReport entry can carry beyond the module-defined
// lifecycle callbacks.
const (
	// LoadHandler keys the cost of executing the module's top level once —
	// what Context.Load spends when the module is (re)deployed.
	LoadHandler = "(load)"
)

// costCap saturates bound arithmetic: any bound that climbs past it stays
// pinned there, keeping deeply nested counted loops from overflowing.
const costCap = int64(1) << 50

// HandlerCost is the worst-case cost of one invocation of a module entry
// point.
type HandlerCost struct {
	// Name is the entry point: "event_received", "init" or LoadHandler.
	Name string
	// Pos locates the handler's definition (zero for LoadHandler).
	Pos Position
	// Bounded reports whether the analysis found a finite bound. When
	// false, Steps is meaningless and Reasons explains why.
	Bounded bool
	// Steps bounds the interpreter instructions one invocation executes —
	// comparable to Context.LastInstructions.
	Steps int64
	// Reasons lists why the bound is unbounded (loop, recursion, dynamic
	// call), deduplicated, for diagnostics and reports.
	Reasons []string
}

// CostReport is the pipecost result for one module: worst-case bounds per
// entry point, sorted by name for determinism.
type CostReport struct {
	Handlers []HandlerCost
}

// ---- bound arithmetic ----

// bound is the abstract cost value the pass propagates: either a finite
// step count or "unbounded" with reasons.
type bound struct {
	ok    bool
	steps int64
	// unbounded classification, used to pick PV012 vs PV013.
	reasons   []string
	recursion bool
	dynamic   bool
}

func finite(steps int64) bound { return bound{ok: true, steps: steps} }

func unboundedBy(reason string) bound { return bound{reasons: []string{reason}} }

func satAdd(a, b int64) int64 {
	if a > costCap-b {
		return costCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > costCap/b {
		return costCap
	}
	return a * b
}

func mergeReasons(dst []string, src []string) []string {
	for _, r := range src {
		if !slices.Contains(dst, r) && len(dst) < 8 {
			dst = append(dst, r)
		}
	}
	return dst
}

// add sequences two bounds.
func (b bound) add(o bound) bound {
	if !b.ok || !o.ok {
		return maxBound(b, o) // unbounded either way: the reasons of both
	}
	return finite(satAdd(b.steps, o.steps))
}

// addSteps adds a constant instruction cost.
func (b bound) addSteps(n int64) bound {
	if !b.ok {
		return b
	}
	b.steps = satAdd(b.steps, n)
	return b
}

// scale multiplies a bound by an iteration count.
func (b bound) scale(n int64) bound {
	if !b.ok {
		return b
	}
	if n <= 0 {
		return finite(0)
	}
	return finite(satMul(b.steps, n))
}

// maxBound takes the maximum over two alternative paths — a
// sound upper bound for whichever path executes.
func maxBound(a, b bound) bound {
	if !a.ok || !b.ok {
		return bound{
			reasons:   mergeReasons(slices.Clone(a.reasons), b.reasons),
			recursion: a.recursion || b.recursion,
			dynamic:   a.dynamic || b.dynamic,
		}
	}
	return finite(max(a.steps, b.steps))
}

// ---- the pass ----

// costPass analyzes the parsed, resolved program and returns the
// per-handler report plus the PV012/PV013 diagnostics it produced.
func costPass(prog *program, names *callees) (CostReport, []Diagnostic) {
	ca := &costAnalysis{callees: names}
	var report CostReport
	bounds := make(map[string]bound)

	// Module load: the top-level statements, once.
	load := (&flowWalk[bound]{d: ca}).body(prog.stmts, finite(0))
	bounds[LoadHandler] = load
	report.Handlers = append(report.Handlers, ca.handlerCost(LoadHandler, Position{Line: 1, Col: 1}, load))

	// Lifecycle handlers.
	for _, name := range []string{"init", "event_received"} {
		def, ok := ca.funcs[name]
		if !ok {
			continue
		}
		b := ca.functionCost(def)
		bounds[name] = b
		report.Handlers = append(report.Handlers, ca.handlerCost(name, def.pos, b))
	}

	sort.Slice(report.Handlers, func(i, j int) bool {
		return report.Handlers[i].Name < report.Handlers[j].Name
	})

	// PV013: handlers unboundable for a non-loop reason. Loop-caused
	// unboundedness is already positioned at the loop itself (PV012).
	for _, h := range report.Handlers {
		if h.Bounded {
			continue
		}
		b := bounds[h.Name]
		if b.recursion || b.dynamic {
			ca.diags = append(ca.diags, Diagnostic{
				Pos: h.Pos, Code: CodeUnboundableCost, Severity: SeverityWarning,
				Message: fmt.Sprintf("%s: worst-case cost is unboundable (%s); PV014 cannot check an instruction limit against it", handlerLabel(h.Name), joinReasons(h.Reasons)),
			})
		}
	}

	return report, ca.diags
}

// handlerLabel renders a handler name for diagnostics.
func handlerLabel(name string) string {
	if name == LoadHandler {
		return "module top level"
	}
	return name
}

func joinReasons(reasons []string) string {
	if len(reasons) == 0 {
		return "unknown"
	}
	return strings.Join(reasons, "; ")
}

type costAnalysis struct {
	*callees
	// fn is the top-level function being costed, nil during module load.
	fn    *funcLit
	calls callMemo[string, bound]
	diags []Diagnostic
}

func (ca *costAnalysis) handlerCost(name string, pos Position, b bound) HandlerCost {
	h := HandlerCost{Name: name, Pos: pos, Bounded: b.ok}
	if b.ok {
		h.Steps = b.steps
	} else {
		h.Reasons = append([]string(nil), b.reasons...)
	}
	return h
}

// functionCost computes (and memoizes) the cost of calling one top-level
// function; a cycle in the call graph is recursion, and unbounded.
func (ca *costAnalysis) functionCost(def funcDef) bound {
	recursion := func() bound {
		b := unboundedBy(fmt.Sprintf("recursion through %q", def.name))
		b.recursion = true
		return b
	}
	return ca.calls.visit(def.name, recursion, func() bound {
		caller := ca.fn
		ca.fn = def.fn
		// The body statements execute via execStmt with no extra call-frame
		// step.
		b := (&flowWalk[bound]{d: ca}).body(def.fn.body.stmts, finite(0))
		ca.fn = caller
		return b
	})
}

// ownBinding reports whether the code being costed may itself hold the
// binding id reads: a scope enclosing id declares the name (a parameter, a
// block-scoped variable, a nested function) or, at the module's top level, a
// module-level value does. A call through it is a call through a value.
func (ca *costAnalysis) ownBinding(id *identExpr) bool {
	return len(id.refs) > 0 || (ca.fn == nil && ca.values[id.name])
}

// callees answers, for one module, what a call by name reaches: a host
// binding or stdlib builtin, one of the module's own top-level functions, or
// a value only the running code knows. pipecost and PV011 both ask it.
type callees struct {
	funcs funcTable
	// values names every global the module binds other than by a definition
	// in funcs — a plain variable, a function the table's entry replaced or
	// one declared under an if, a table function or builtin some assignment
	// overwrites: what a lookup by name may find in place of the table's
	// function or a same-named builtin.
	values map[string]bool
}

func newCallees(prog *program, funcs funcTable) *callees {
	c := &callees{funcs: funcs, values: make(map[string]bool)}
	// A module-level declaration other than the table's entry binds a value,
	// and so does a write to a name the pass would otherwise trust — a table
	// function, a builtin — since it replaces what a later call runs.
	for name, b := range prog.globals {
		for d := b.last; d != nil; d = d.prev {
			c.values[name] = c.values[name] || d.pos != funcs[name].pos
		}
	}
	for name := range prog.written {
		c.values[name] = c.values[name] || c.hostBinds(name) || c.moduleBinds(name)
	}
	return c
}

// moduleBinds and hostBinds say who can own a global called name: one of
// the module's own top-level declarations, or a host binding or builtin.
func (c *callees) moduleBinds(name string) bool {
	_, isFunc := c.funcs[name]
	return isFunc || c.values[name]
}

func (c *callees) hostBinds(name string) bool {
	_, isSig := callSignatures[name]
	return isSig
}

// builtin reports whether a call through id reaches the host binding or
// stdlib builtin of that name: nothing in the module has taken the name.
func (c *callees) builtin(id *identExpr) bool {
	return c.hostBinds(id.name) && len(id.refs) == 0 && !c.moduleBinds(id.name)
}

// function returns the module function a call through id runs from inside
// a function: no enclosing scope declares the name and no other
// module-level value can have replaced the table's entry.
func (c *callees) function(id *identExpr) (funcDef, bool) {
	def, ok := c.funcs[id.name]
	return def, ok && len(id.refs) == 0 && !c.values[id.name]
}

// ---- the walk's domain ----
//
// pipecost is a domain of the forward walk (flow.go): at charges one step
// per node, as interp.go's step does, and prices calls; a join takes the
// costlier arm; no path ends, so code after a return or jump is charged
// too; and loop holds the trip-count rule.

func (ca *costAnalysis) at(n node, b bound) bound {
	b = b.addSteps(1 + reads(n))
	call, ok := n.(*callExpr)
	if !ok {
		return b
	}
	// Module functions inline their memoized cost, host calls add nothing
	// beyond the call itself and builtins their price, everything else is
	// dynamic and unboundable.
	id, isID := call.callee.(*identExpr)
	var dyn bound
	switch {
	case !isID:
		dyn = unboundedBy(fmt.Sprintf("dynamic call at %s", call.pos))
	case ca.builtin(id):
		return b.add(ca.price(call, id.name))
	case ca.ownBinding(id):
		dyn = unboundedBy(fmt.Sprintf("call through local function value %q at %s", id.name, call.pos))
	default:
		if def, isFunc := ca.function(id); isFunc {
			return b.add(ca.functionCost(def))
		}
		// Unknown name: PV001 territory; cost-wise it cannot be priced.
		dyn = unboundedBy(fmt.Sprintf("call to unresolvable callee %q at %s", id.name, call.pos))
	}
	dyn.dynamic = true
	return b.add(dyn)
}

// price bounds what a call to a host binding or builtin pays beyond its own
// step: nothing for a host binding, the builtin's price over the sizes
// inferSize bounds for its arguments. A size it cannot bound is a PV012.
func (ca *costAnalysis) price(call *callExpr, name string) bound {
	b, ok := builtins[name]
	if !ok {
		return finite(0)
	}
	n, known := int64(0), true
	w := width(arg(call.args, 1)) // what a search or lookup compares with
	switch {
	case len(call.args) == 0 || b.price == flat || b.price == keyed:
	case b.price == counted:
		var v float64
		if v, known = foldConst(call.args[0]); v > 0 {
			n = int64(min(v, float64(costCap)))
		}
	case b.price == perArg:
		for _, a := range call.args {
			m, ok := ca.inferSize(a)
			n, known = satAdd(n, m), known && ok
		}
	default:
		if n, known = ca.inferSize(call.args[0]); b.price == sorted {
			w = longestLit(call.args[0])
		}
	}
	if !known {
		ca.diags = append(ca.diags, Diagnostic{
			Pos: call.pos, Code: CodeUnboundedLoop, Severity: SeverityWarning,
			Message: fmt.Sprintf("%s works over an argument whose size is not statically known", name),
		})
		return unboundedBy(fmt.Sprintf("%s over an argument of unknown size at %s", name, call.pos))
	}
	return finite(b.price.of(n, w))
}

func (*costAnalysis) join(a, b bound) bound { return maxBound(a, b) }

func (*costAnalysis) ends() bool { return false }

func (*costAnalysis) exit(bound) {}

// loop scales one iteration's cost by the loop's trip count: a counted
// for loop's (inferForIterations), a for-of over a literal or range(k)
// (inferIterableLen), zero for a while loop whose condition folds to
// false. Every other loop is statically unbounded (PV012); its parts are
// walked anyway so nested diagnostics (inner loops, recursion) still
// surface.
func (ca *costAnalysis) loop(n node, b bound, head, iter func(bound) bound) bound {
	var trips int64
	var ok bool
	var kind, why string
	switch st := n.(type) {
	case *whileStmt:
		if v, isConst := foldConst(st.cond); isConst && v == 0 {
			return head(b)
		}
		kind, why = "while loop", "while loop has no statically inferable iteration bound"
	case *forStmt:
		trips, ok = ca.inferForIterations(st)
		kind, why = "for loop", "for loop bound cannot be inferred statically (need constant init, bound and step, with an untouched induction variable)"
	case *forOfStmt:
		trips, ok = ca.inferIterableLen(st.iter)
		kind, why = "for-of loop", "for-of iterates a value whose length is not statically known"
		if o, isObj := st.iter.(*objectLit); isObj {
			b = b.addSteps(sorted.of(trips, longestLit(o))) // listing the keys, as keys() does
		}
	}
	if ok {
		return head(b).add(iter(finite(0)).scale(trips))
	}
	ca.diags = append(ca.diags, Diagnostic{
		Pos: n.position(), Code: CodeUnboundedLoop, Severity: SeverityWarning, Message: why,
	})
	iter(head(finite(0)))
	return b.add(unboundedBy(kind + " at " + n.position().String()))
}

// ---- loop-bound inference ----

// inferForIterations matches the counted-loop idiom and returns the number
// of body executions.
func (ca *costAnalysis) inferForIterations(st *forStmt) (int64, bool) {
	if st.init == nil || st.cond == nil || st.post == nil {
		return 0, false
	}

	// Induction variable and start value. The count only holds if nothing
	// outside the loop's own text can write the variable while it runs: iv
	// is every binding it can be.
	var iv []*binding
	var start float64
	switch init := st.init.(type) {
	case *declStmt:
		// Declared by the loop: a fresh binding per execution of the loop,
		// reachable only from the loop's text.
		v, ok := foldConst(init.init)
		if !ok {
			return 0, false
		}
		iv, start = []*binding{init.b}, v
	case *exprStmt:
		as, ok := init.x.(*assignExpr)
		if !ok || as.op != "=" {
			return 0, false
		}
		id, ok := as.target.(*identExpr)
		if !ok || !ca.privateLocal(id) {
			return 0, false
		}
		v, ok := foldConst(as.value)
		if !ok {
			return 0, false
		}
		iv, start = id.binds, v
	default:
		return 0, false
	}
	// The header's clauses share one scope, so an identifier there is the
	// induction variable when its innermost binding is.
	isIV := func(e expr) bool {
		id, ok := e.(*identExpr)
		return ok && len(id.binds) > 0 && id.binds[0] == iv[0]
	}

	// Condition: iv OP const (or const OP iv, mirrored).
	cmp, ok := st.cond.(*binaryExpr)
	if !ok {
		return 0, false
	}
	op := cmp.op
	var limit float64
	if isIV(cmp.x) {
		v, okc := foldConst(cmp.y)
		if !okc {
			return 0, false
		}
		limit = v
	} else if isIV(cmp.y) {
		v, okc := foldConst(cmp.x)
		if !okc {
			return 0, false
		}
		limit = v
		// Mirror: `K > i` is `i < K`, etc.
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		default:
			return 0, false
		}
	} else {
		return 0, false
	}

	// Step: i++, i--, i += c, i -= c, i = i + c, i = i - c, i = c + i.
	step, ok := inferStep(st.post, isIV)
	if !ok || step == 0 {
		return 0, false
	}

	// The body (and the post beyond the recognized update) must not write
	// the induction variable.
	if writes(st.body, iv) {
		return 0, false
	}

	return iterationsFor(start, limit, step, op)
}

// inferStep extracts the per-iteration increment post applies to the
// induction variable.
func inferStep(post expr, isIV func(expr) bool) (float64, bool) {
	switch p := post.(type) {
	case *updateExpr:
		if !isIV(p.target) {
			return 0, false
		}
		if p.op == "++" {
			return 1, true
		}
		return -1, true
	case *assignExpr:
		if !isIV(p.target) {
			return 0, false
		}
		switch p.op {
		case "+=":
			v, okc := foldConst(p.value)
			return v, okc
		case "-=":
			v, okc := foldConst(p.value)
			return -v, okc
		case "=":
			bin, okb := p.value.(*binaryExpr)
			if !okb {
				return 0, false
			}
			switch {
			case bin.op == "+" && isIV(bin.x):
				return foldConst(bin.y)
			case bin.op == "+" && isIV(bin.y):
				return foldConst(bin.x)
			case bin.op == "-" && isIV(bin.x):
				v, okc := foldConst(bin.y)
				return -v, okc
			}
		}
	}
	return 0, false
}

// iterationsFor solves the closed form, rejecting diverging combinations.
func iterationsFor(start, limit, step float64, op string) (int64, bool) {
	if math.IsNaN(start) || math.IsNaN(limit) || math.IsNaN(step) ||
		math.IsInf(start, 0) || math.IsInf(limit, 0) || math.IsInf(step, 0) {
		return 0, false
	}
	var n float64
	switch op {
	case "<":
		if step <= 0 {
			return 0, false
		}
		n = math.Ceil((limit - start) / step)
	case "<=":
		if step <= 0 {
			return 0, false
		}
		n = math.Floor((limit-start)/step) + 1
	case ">":
		if step >= 0 {
			return 0, false
		}
		n = math.Ceil((start - limit) / -step)
	case ">=":
		if step >= 0 {
			return 0, false
		}
		n = math.Floor((start-limit)/-step) + 1
	default:
		return 0, false
	}
	if n <= 0 {
		return 0, true
	}
	if n > float64(costCap) {
		return costCap, true
	}
	// The closed form is exact only in integer arithmetic. The interpreter
	// adds step to a float64 each iteration: past 2^53 an integer step can
	// stop moving the variable at all, and a fractional one accumulates
	// rounding that can admit one more iteration than the quotient says
	// (ten additions of 0.1 fall short of 1).
	exact := true
	for _, v := range []float64{start, limit, step} {
		if math.Abs(v) >= 1<<53 {
			return 0, false
		}
		exact = exact && v == math.Trunc(v)
	}
	if !exact {
		n++
	}
	return int64(n), true
}

// privateLocal reports whether id can only name a slot in the current call's
// own frames that no closure reaches, so that a function the loop calls
// cannot write it. A module global fails (any callee can assign it), and so
// does a local of a function containing a function literal. A local scope
// declaring the name is not enough on its own: until that declaration has
// executed, a lookup falls through to a global of the same name.
func (ca *costAnalysis) privateLocal(id *identExpr) bool {
	return ca.fn != nil && !ca.fn.scope.captured && len(id.refs) > 0 &&
		!ca.moduleBinds(id.name) && !ca.hostBinds(id.name)
}

// writes reports whether anything under n can write one of bs: an
// assignment, ++ or -- that can land on it (nested function literals
// included, pessimistically: the closure could run inside the loop), or a
// redeclaration in its scope, which the interpreter runs as a write.
func writes(n node, bs []*binding) bool {
	found := false
	hit := func(b *binding) {
		for _, x := range bs {
			found = found || x == b
		}
	}
	inspect(n, func(n node) bool {
		var target expr
		switch x := n.(type) {
		case *assignExpr:
			target = x.target
		case *updateExpr:
			target = x.target
		case *declStmt:
			hit(x.b)
		case *funcDecl:
			hit(x.b)
		}
		if id, ok := target.(*identExpr); ok {
			for _, b := range id.binds {
				hit(b)
			}
		}
		return !found
	})
	return found
}

// reads bounds what node n pays beyond its step for the strings it compares
// or looks up by (interp.go's compare and readKey): a comparison reads no
// more than its wider literal operand. A string the pass cannot size, it
// takes to be shorter than cmpBlock: the one assumption the bound rests on.
func reads(n node) (steps int64) {
	switch x := n.(type) {
	case *binaryExpr:
		if x.opc >= opEq && x.opc <= opGe {
			steps = max(width(x.x), width(x.y)) / cmpBlock
		}
	case *switchStmt:
		for _, c := range x.cases {
			steps += max(width(x.subject), width(c.value)) / cmpBlock
		}
	case *indexExpr:
		steps = width(x.index) / cmpBlock
	case *assignExpr:
		steps = reads(x.target) // the write's lookup
	case *updateExpr:
		steps = reads(x.target)
	}
	return steps
}

// width is a string literal's bytes, and 0 for any other expression.
func width(e expr) int64 {
	if s, ok := e.(*stringLit); ok {
		return int64(len(s.value))
	}
	return 0
}

// longestLit is longest's bound over an array or object literal.
func longestLit(e expr) (w int64) {
	switch x := e.(type) {
	case *arrayLit:
		for _, el := range x.elems {
			w = max(w, width(el))
		}
	case *objectLit:
		for _, f := range x.fields {
			w = max(w, int64(len(f.key)))
		}
	}
	return w
}

// inferSize bounds what an argument counts for in a builtin's price: a
// string literal's bytes, or the element count inferIterableLen infers.
func (ca *costAnalysis) inferSize(e expr) (int64, bool) {
	if s, ok := e.(*stringLit); ok {
		return int64(len(s.value)), true
	}
	return ca.inferIterableLen(e)
}

// inferIterableLen bounds the element count of a for-of iterable. Builtin
// calls (range, keys, values) only count when the name still resolves to
// the builtin — a local or module function shadowing it defeats inference.
func (ca *costAnalysis) inferIterableLen(e expr) (int64, bool) {
	switch ex := e.(type) {
	case *arrayLit:
		return int64(len(ex.elems)), true
	case *objectLit:
		return int64(len(ex.fields)), true
	case *stringLit:
		n := int64(0)
		for range ex.value {
			n++
		}
		return n, true
	case *callExpr:
		id, ok := ex.callee.(*identExpr)
		if !ok || len(ex.args) != 1 {
			return 0, false
		}
		if !ca.builtin(id) {
			return 0, false
		}
		switch id.name {
		case "range":
			// range(K) with a constant K yields exactly K items.
			if v, okc := foldConst(ex.args[0]); okc {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return 0, false
				}
				if v > float64(costCap) {
					return costCap, true
				}
				return int64(v), true
			}
		case "keys", "values":
			// keys/values of an object literal yield one item per field.
			if obj, okc := ex.args[0].(*objectLit); okc {
				return int64(len(obj.fields)), true
			}
		}
	}
	return 0, false
}

// foldConst evaluates constant numeric expressions: literals, unary minus,
// and the four arithmetic operators over constants.
func foldConst(e expr) (float64, bool) {
	switch ex := e.(type) {
	case *numberLit:
		return ex.value, true
	case *boolLit:
		if ex.value {
			return 1, true
		}
		return 0, true
	case *unaryExpr:
		if ex.op == "-" {
			v, ok := foldConst(ex.x)
			return -v, ok
		}
	case *binaryExpr:
		x, okx := foldConst(ex.x)
		y, oky := foldConst(ex.y)
		if !okx || !oky {
			return 0, false
		}
		switch ex.op {
		case "+":
			return x + y, true
		case "-":
			return x - y, true
		case "*":
			return x * y, true
		case "/":
			if y == 0 {
				return 0, false
			}
			return x / y, true
		case "%":
			if y == 0 {
				return 0, false
			}
			return math.Mod(x, y), true
		}
	}
	return 0, false
}
