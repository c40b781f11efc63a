package script

// pipecost: a static worst-case cost analysis over PipeScript module ASTs.
//
// For every lifecycle entry point — the module's top-level load, init() and
// event_received() — the pass computes a sound upper bound on the number of
// interpreter instructions one invocation can execute and on the number of
// values it can allocate. "Instruction" means exactly what the interpreter
// meters: one step per statement executed, one per expression evaluated,
// and one per loop-iteration check (interp.go charges in.step at the same
// points), so the static bound is directly comparable to the runtime
// counter exposed by Context.LastInstructions and the
// `script.<module>.instructions` meter. The soundness contract — static
// bound >= measured count for every handler — is enforced by the golden
// test at the repository root (cost_soundness_test.go).
//
// The analysis is an abstract interpretation over the AST:
//
//   - Straight-line code sums; branches (if, ?:, switch) take the
//     elementwise maximum over arms, which upper-bounds any single path.
//   - Counted `for` loops with a constant-foldable bound, constant step and
//     an induction variable that only the loop's own update can write get a
//     closed-form iteration count; `for-of` over literals or range(k)
//     likewise. Everything else is statically unbounded and reported as
//     PV012 (the runtime step budget still caps it, but the planner cannot
//     price it).
//   - Calls to the module's own top-level functions are inlined through a
//     memoized call-graph traversal; cycles are recursion, reported as
//     PV013 and unbounded. Calls through dynamic function values (locals,
//     parameters, members) are unboundable, also PV013.
//   - Scope questions — is this callee, iterable or induction variable a
//     local? — are answered by the resolve pass's annotations, the same
//     ones the interpreter runs on, never by a name set of the pass's own.
//   - Host bindings and stdlib builtins execute in Go and cost zero
//     interpreter instructions; the pass instead records a worst-case
//     invocation count per callable name (HandlerCost.HostCalls). The
//     planner weights those counts with the Cost declared in the shared
//     signature table — DNN-backed calls such as call_service carry a
//     large Symbolic cost, since their true latency belongs to the
//     service, not the script.
//
// Both PV012 and PV013 are warnings: an unbounded handler is legal (the
// sandbox step budget protects the device) but opaque to cost-aware
// placement and to the instruction-limit governance this analysis feeds.

import (
	"fmt"
	"math"
	"sort"
)

// Handler names a CostReport entry can carry beyond the module-defined
// lifecycle callbacks.
const (
	// LoadHandler keys the cost of executing the module's top level once —
	// what Context.Load spends when the module is (re)deployed.
	LoadHandler = "(load)"
)

// UnboundedWeight is the planner weight of a handler whose cost the
// analysis could not bound. It dominates any realistic bounded weight
// without saturating int64 arithmetic in the planner's sums.
const UnboundedWeight = int64(1) << 40

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
	// false, Steps/Allocs are meaningless and Reasons explains why.
	Bounded bool
	// Steps bounds the interpreter instructions one invocation executes —
	// comparable to Context.LastInstructions.
	Steps int64
	// Allocs bounds the script values (arrays, objects, functions,
	// strings) one invocation allocates. Advisory: builtin allocation
	// behavior is approximated by a per-call estimate.
	Allocs int64
	// HostCalls bounds how many times each host binding or builtin can be
	// invoked, keyed by global name. Host calls run in Go and contribute
	// zero Steps; the planner prices them via the signature table's Cost.
	HostCalls map[string]int64
	// Reasons lists why the bound is unbounded (loop, recursion, dynamic
	// call), deduplicated, for diagnostics and reports.
	Reasons []string
}

// Weight folds a handler's cost into one scalar for the planner: the
// instruction bound plus every worst-case host/builtin invocation priced
// at its signature-table Cost (default 1). Unbounded handlers weigh
// UnboundedWeight.
func (h HandlerCost) Weight() int64 {
	if !h.Bounded {
		return UnboundedWeight
	}
	w := h.Steps
	for name, n := range h.HostCalls {
		cost := int64(1)
		if sig, ok := callSignatures[name]; ok && sig.Cost > 0 {
			cost = sig.Cost
		}
		w = satAdd(w, satMul(n, cost))
	}
	return w
}

// Symbolic reports whether the handler can invoke a host call whose cost
// is symbolic (DNN-backed, e.g. call_service) — the signal the planner
// uses to count a pipeline's heavy stages.
func (h HandlerCost) Symbolic() bool {
	for name, n := range h.HostCalls {
		if n <= 0 {
			continue
		}
		if sig, ok := callSignatures[name]; ok && sig.Symbolic {
			return true
		}
	}
	return false
}

// CostReport is the pipecost result for one module: worst-case bounds per
// entry point, sorted by name for determinism.
type CostReport struct {
	Handlers []HandlerCost
}

// Handler returns the named entry's cost.
func (r CostReport) Handler(name string) (HandlerCost, bool) {
	for _, h := range r.Handlers {
		if h.Name == name {
			return h, true
		}
	}
	return HandlerCost{}, false
}

// EventWeight is the planner weight of the module's event_received
// handler — the per-frame cost signal. Modules without a handler (pure
// sources analyzed standalone) weigh 1.
func (r CostReport) EventWeight() int64 {
	if h, ok := r.Handler("event_received"); ok {
		return h.Weight()
	}
	return 1
}

// EventSymbolic reports whether the event handler makes symbolic
// (DNN-backed) host calls.
func (r CostReport) EventSymbolic() bool {
	h, ok := r.Handler("event_received")
	return ok && h.Symbolic()
}

// AnalyzeCost parses src and runs only the pipecost pass, without the rest
// of the pipevet checks — the entry point planners use. Unparseable
// sources yield an empty report (deploy-time analysis rejects them
// separately).
func AnalyzeCost(src string) CostReport {
	prog, err := parseResolved(src)
	if err != nil {
		return CostReport{}
	}
	report, _ := costPass(prog, topLevelFuncs(prog), CallSignatures(), nil)
	return report
}

// ---- bound arithmetic ----

// bound is the abstract cost value the pass propagates: either a finite
// (steps, allocs, per-callable counts) triple or "unbounded" with reasons.
type bound struct {
	ok     bool
	steps  int64
	allocs int64
	calls  map[string]int64
	// unbounded classification, used to pick PV012 vs PV013.
	reasons   []string
	recursion bool
	dynamic   bool
}

func finite(steps, allocs int64) bound { return bound{ok: true, steps: steps, allocs: allocs} }

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
		found := false
		for _, d := range dst {
			if d == r {
				found = true
				break
			}
		}
		if !found && len(dst) < 8 {
			dst = append(dst, r)
		}
	}
	return dst
}

// add sequences two bounds.
func (b bound) add(o bound) bound {
	if !b.ok || !o.ok {
		out := bound{
			reasons:   mergeReasons(append([]string(nil), b.reasons...), o.reasons),
			recursion: b.recursion || o.recursion,
			dynamic:   b.dynamic || o.dynamic,
		}
		return out
	}
	out := bound{ok: true, steps: satAdd(b.steps, o.steps), allocs: satAdd(b.allocs, o.allocs)}
	out.calls = mergeCalls(b.calls, o.calls, 1)
	return out
}

// addSteps adds a constant instruction cost.
func (b bound) addSteps(n int64) bound {
	if !b.ok {
		return b
	}
	b.steps = satAdd(b.steps, n)
	return b
}

// addAllocs adds a constant allocation cost.
func (b bound) addAllocs(n int64) bound {
	if !b.ok {
		return b
	}
	b.allocs = satAdd(b.allocs, n)
	return b
}

// addCall records one worst-case invocation of a host/builtin callable.
func (b bound) addCall(name string) bound {
	if !b.ok {
		return b
	}
	out := b
	out.calls = mergeCalls(b.calls, map[string]int64{name: 1}, 1)
	return out
}

// scale multiplies a bound by an iteration count.
func (b bound) scale(n int64) bound {
	if !b.ok {
		return b
	}
	if n <= 0 {
		return finite(0, 0)
	}
	out := bound{ok: true, steps: satMul(b.steps, n), allocs: satMul(b.allocs, n)}
	out.calls = mergeCalls(nil, b.calls, n)
	return out
}

// maxBound takes the elementwise maximum over two alternative paths — a
// sound upper bound for whichever path executes.
func maxBound(a, b bound) bound {
	if !a.ok || !b.ok {
		out := bound{
			reasons:   mergeReasons(append([]string(nil), a.reasons...), b.reasons),
			recursion: a.recursion || b.recursion,
			dynamic:   a.dynamic || b.dynamic,
		}
		return out
	}
	out := bound{ok: true, steps: a.steps, allocs: a.allocs}
	if b.steps > out.steps {
		out.steps = b.steps
	}
	if b.allocs > out.allocs {
		out.allocs = b.allocs
	}
	out.calls = maxCalls(a.calls, b.calls)
	return out
}

func mergeCalls(dst, src map[string]int64, factor int64) map[string]int64 {
	if len(src) == 0 {
		return cloneCalls(dst)
	}
	out := cloneCalls(dst)
	if out == nil {
		out = make(map[string]int64, len(src))
	}
	for name, n := range src {
		out[name] = satAdd(out[name], satMul(n, factor))
	}
	return out
}

func maxCalls(a, b map[string]int64) map[string]int64 {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := cloneCalls(a)
	if out == nil {
		out = make(map[string]int64, len(b))
	}
	for name, n := range b {
		if n > out[name] {
			out[name] = n
		}
	}
	return out
}

func cloneCalls(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ---- the pass ----

// costPass analyzes the parsed, resolved program and returns the
// per-handler report plus the PV012/PV013 diagnostics it produced.
func costPass(prog *program, funcs funcTable, sigs map[string]Signature, globals []string) (CostReport, []Diagnostic) {
	ca := &costAnalysis{
		sigs:         sigs,
		globals:      make(map[string]bool, len(globals)),
		funcs:        funcs,
		values:       make(map[string]bool),
		loopReported: make(map[Position]bool),
	}
	for _, g := range globals {
		ca.globals[g] = true
	}
	// A write to a name the pass would otherwise trust — a table function, a
	// builtin — replaces what a later call through it runs.
	overwrites := func(target expr) {
		if id, ok := target.(*identExpr); ok && (ca.hostBinds(id.name) || ca.moduleBinds(id.name)) {
			ca.values[id.name] = true
		}
	}
	for _, s := range prog.stmts {
		inspect(s, func(n node) bool {
			switch x := n.(type) {
			case *declStmt:
				if fn, _ := x.init.(*funcLit); x.slot == globalSlot && (fn == nil || funcs[x.name].fn != fn) {
					ca.values[x.name] = true
				}
			case *funcDecl:
				if x.slot == globalSlot && funcs[x.fn.name].fn != x.fn {
					ca.values[x.fn.name] = true
				}
			case *assignExpr:
				overwrites(x.target)
			case *updateExpr:
				overwrites(x.target)
			}
			return true
		})
	}

	var report CostReport
	bounds := make(map[string]bound)

	// Module load: the top-level statements, once.
	load := finite(0, 0)
	for _, s := range prog.stmts {
		load = load.add(ca.stmtCost(s))
	}
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
				Message: fmt.Sprintf("%s: worst-case cost is unboundable (%s); the planner cannot price this handler", handlerLabel(h.Name), joinReasons(h.Reasons)),
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
	out := reasons[0]
	for _, r := range reasons[1:] {
		out += "; " + r
	}
	return out
}

type costAnalysis struct {
	sigs    map[string]Signature
	globals map[string]bool
	funcs   funcTable
	// values names every global the module binds other than by a definition
	// in funcs — a plain variable, a function the table's entry replaced or
	// one declared under an if, a table function or builtin some assignment
	// overwrites: what a lookup by name may find in place of the table's
	// function or a same-named builtin.
	values map[string]bool
	// fn is the top-level function being costed, nil during module load.
	fn    *funcLit
	calls callMemo[string, bound]
	diags []Diagnostic
	// loopReported dedupes PV012 per loop position.
	loopReported map[Position]bool
}

func (ca *costAnalysis) handlerCost(name string, pos Position, b bound) HandlerCost {
	h := HandlerCost{Name: name, Pos: pos, Bounded: b.ok}
	if b.ok {
		h.Steps = b.steps
		h.Allocs = b.allocs
		h.HostCalls = cloneCalls(b.calls)
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
		// Calling a script function allocates its `arguments` array; the body
		// statements execute via execStmt with no extra call-frame step.
		b := finite(0, 1)
		for _, s := range def.fn.body.stmts {
			b = b.add(ca.stmtCost(s))
		}
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

// moduleBinds and hostBinds say who can own a global called name: one of
// the module's own top-level declarations, or a host binding or builtin.
func (ca *costAnalysis) moduleBinds(name string) bool {
	_, isFunc := ca.funcs[name]
	return isFunc || ca.values[name]
}

func (ca *costAnalysis) hostBinds(name string) bool {
	_, isSig := ca.sigs[name]
	return isSig || ca.globals[name]
}

// builtin reports whether a call through id reaches the host binding or
// stdlib builtin of that name: nothing in the module has taken the name.
func (ca *costAnalysis) builtin(id *identExpr) bool {
	return ca.hostBinds(id.name) && len(id.refs) == 0 && !ca.moduleBinds(id.name)
}

// ---- statement costs ----
//
// Each case mirrors interp.go's execStmt step accounting exactly: every
// statement charges 1 on entry, plus its parts.

func (ca *costAnalysis) stmtCost(s stmt) bound {
	one := finite(1, 0)
	switch st := s.(type) {
	case *exprStmt:
		return one.add(ca.exprCost(st.x))
	case *declStmt:
		b := one
		if st.init != nil {
			b = b.add(ca.exprCost(st.init))
		}
		return b
	case *blockStmt:
		b := one
		for _, inner := range st.stmts {
			b = b.add(ca.stmtCost(inner))
		}
		return b
	case *ifStmt:
		b := one.add(ca.condCost(st.cond))
		thenB := ca.stmtCost(st.then)
		var elseB bound
		elseB = finite(0, 0)
		if st.elsE != nil {
			elseB = ca.stmtCost(st.elsE)
		}
		return b.add(maxBound(thenB, elseB))
	case *whileStmt:
		return ca.whileCost(st)
	case *forStmt:
		return ca.forCost(st)
	case *forOfStmt:
		return ca.forOfCost(st)
	case *returnStmt:
		b := one
		if st.value != nil {
			b = b.add(ca.exprCost(st.value))
		}
		return b
	case *breakStmt, *continueStmt:
		return one
	case *throwStmt:
		return one.add(ca.exprCost(st.value))
	case *tryStmt:
		// Worst case: the body runs fully, then the catch runs fully (the
		// throw can land on the last body statement), then finally.
		b := one.add(ca.stmtCost(st.body))
		if st.catch != nil {
			for _, inner := range st.catch.stmts {
				b = b.add(ca.stmtCost(inner))
			}
		}
		if st.finally != nil {
			b = b.add(ca.stmtCost(st.finally))
		}
		return b
	case *switchStmt:
		// Worst case evaluates every case value; a match can fall through
		// every case body, a miss runs the default.
		b := one.add(ca.exprCost(st.subject))
		var bodies bound
		bodies = finite(0, 0)
		for _, c := range st.cases {
			b = b.add(ca.exprCost(c.value))
			for _, inner := range c.body {
				bodies = bodies.add(ca.stmtCost(inner))
			}
		}
		var def bound
		def = finite(0, 0)
		for _, inner := range st.defaultBody {
			def = def.add(ca.stmtCost(inner))
		}
		return b.add(maxBound(bodies, def))
	case *funcDecl:
		return one.addAllocs(1)
	default:
		return one
	}
}

// condCost is exprCost; conditions have no extra interpreter charge.
func (ca *costAnalysis) condCost(e expr) bound {
	return ca.exprCost(e)
}

// whileCost: only a constant-false condition terminates provably without
// body execution; every other while loop is statically unbounded (PV012).
func (ca *costAnalysis) whileCost(st *whileStmt) bound {
	cond := ca.condCost(st.cond)
	if v, ok := foldConst(st.cond); ok && v == 0 {
		// One iteration check, body never runs: 1 (stmt) + 1 (head) + cond.
		return finite(2, 0).add(cond)
	}
	ca.reportLoop(st.pos, "while loop has no statically inferable iteration bound")
	// Walk the body anyway so nested diagnostics (inner loops, recursion)
	// still surface.
	ca.stmtCost(st.body)
	b := unboundedBy("while loop at " + st.pos.String())
	return b
}

// forCost handles the counted-loop pattern: `for (var i = S; i (<|<=|>|>=) K; i += d)`
// with S, K, d constant-foldable and i never written in the body.
func (ca *costAnalysis) forCost(st *forStmt) bound {
	n, ok := ca.inferForIterations(st)
	if !ok {
		ca.reportLoop(st.pos, "for loop bound cannot be inferred statically (need constant init, bound and step, with an untouched induction variable)")
		if st.init != nil {
			ca.stmtCost(st.init)
		}
		if st.cond != nil {
			ca.condCost(st.cond)
		}
		ca.stmtCost(st.body)
		if st.post != nil {
			ca.exprCost(st.post)
		}
		return unboundedBy("for loop at " + st.pos.String())
	}

	b := finite(1, 0)
	if st.init != nil {
		b = b.add(ca.stmtCost(st.init))
	}
	var cond bound
	cond = finite(0, 0)
	if st.cond != nil {
		cond = ca.condCost(st.cond)
	}
	body := ca.stmtCost(st.body)
	var post bound
	post = finite(0, 0)
	if st.post != nil {
		post = ca.exprCost(st.post)
	}
	// Each of the n iterations charges the head step, the condition, the
	// body and the post; the final (failing) check charges head + cond.
	perIter := finite(1, 0).add(cond).add(body).add(post)
	return b.add(perIter.scale(n)).add(finite(1, 0)).add(cond)
}

// forOfCost bounds iteration over literal collections and range(k).
func (ca *costAnalysis) forOfCost(st *forOfStmt) bound {
	n, ok := ca.inferIterableLen(st.iter)
	if !ok {
		ca.reportLoop(st.pos, "for-of iterates a value whose length is not statically known")
		ca.exprCost(st.iter)
		ca.stmtCost(st.body)
		return unboundedBy("for-of loop at " + st.pos.String())
	}
	b := finite(1, 0).add(ca.exprCost(st.iter))
	body := ca.stmtCost(st.body)
	// Each item charges the head step plus the body; string iteration can
	// allocate one value per rune, so charge one alloc per item.
	perIter := finite(1, 1).add(body)
	return b.add(perIter.scale(n))
}

func (ca *costAnalysis) reportLoop(pos Position, msg string) {
	if ca.loopReported[pos] {
		return
	}
	ca.loopReported[pos] = true
	ca.diags = append(ca.diags, Diagnostic{
		Pos: pos, Code: CodeUnboundedLoop, Severity: SeverityWarning, Message: msg,
	})
}

// ---- expression costs ----
//
// Mirrors evalExpr: every expression node charges 1, plus its parts.

func (ca *costAnalysis) exprCost(e expr) bound {
	one := finite(1, 0)
	switch ex := e.(type) {
	case *numberLit, *stringLit, *boolLit, *nullLit, *identExpr:
		return one
	case *arrayLit:
		b := one.addAllocs(1)
		for _, el := range ex.elems {
			b = b.add(ca.exprCost(el))
		}
		return b
	case *objectLit:
		b := one.addAllocs(1)
		for _, f := range ex.fields {
			b = b.add(ca.exprCost(f.value))
		}
		return b
	case *funcLit:
		return one.addAllocs(1)
	case *unaryExpr:
		return one.add(ca.exprCost(ex.x))
	case *binaryExpr:
		b := one.add(ca.exprCost(ex.x)).add(ca.exprCost(ex.y))
		if ex.op == "+" {
			// String concatenation allocates; numeric + does not, but the
			// operand types are dynamic — charge the worst case.
			b = b.addAllocs(1)
		}
		return b
	case *logicalExpr:
		return one.add(ca.exprCost(ex.x)).add(ca.exprCost(ex.y))
	case *condExpr:
		b := one.add(ca.condCost(ex.cond))
		return b.add(maxBound(ca.exprCost(ex.then), ca.exprCost(ex.elsE)))
	case *assignExpr:
		b := one.add(ca.exprCost(ex.value))
		if ex.op != "=" {
			// Compound assignment reads the target first.
			b = b.add(ca.exprCost(ex.target))
			if ex.op == "+=" {
				b = b.addAllocs(1)
			}
		}
		return b.add(ca.writeCost(ex.target))
	case *updateExpr:
		return one.add(ca.exprCost(ex.target)).add(ca.writeCost(ex.target))
	case *callExpr:
		return ca.callCost(ex)
	case *memberExpr:
		return one.add(ca.exprCost(ex.obj))
	case *indexExpr:
		return one.add(ca.exprCost(ex.obj)).add(ca.exprCost(ex.index))
	default:
		return one
	}
}

// writeCost mirrors interp.writeTarget: identifier writes are free beyond
// the expression's own evaluation; member/index writes re-evaluate their
// object (and index) expressions.
func (ca *costAnalysis) writeCost(target expr) bound {
	switch tg := target.(type) {
	case *memberExpr:
		return ca.exprCost(tg.obj)
	case *indexExpr:
		// Index assignment into an array may grow it.
		return ca.exprCost(tg.obj).add(ca.exprCost(tg.index)).addAllocs(1)
	default:
		return finite(0, 0)
	}
}

// callCost resolves the callee: module functions inline their memoized
// cost, host/builtin names record an invocation, everything else is
// dynamic and unboundable.
func (ca *costAnalysis) callCost(ex *callExpr) bound {
	// The call expression itself plus argument evaluation.
	b := finite(1, 0)
	for _, arg := range ex.args {
		b = b.add(ca.exprCost(arg))
	}

	id, ok := ex.callee.(*identExpr)
	if !ok {
		b = b.add(ca.exprCost(ex.callee))
		dyn := unboundedBy(fmt.Sprintf("dynamic call at %s", ex.pos))
		dyn.dynamic = true
		return b.add(dyn)
	}
	// Callee identifier evaluation.
	b = b.addSteps(1)

	if ca.ownBinding(id) {
		dyn := unboundedBy(fmt.Sprintf("call through local function value %q at %s", id.name, ex.pos))
		dyn.dynamic = true
		return b.add(dyn)
	}
	if def, isFunc := ca.funcs[id.name]; isFunc && !ca.values[id.name] {
		return b.add(ca.functionCost(def))
	}
	if ca.builtin(id) {
		// Host bindings and builtins execute in Go: zero interpreter steps.
		return b.addCall(id.name).addAllocs(builtinAllocCost(id.name))
	}
	// Unknown name: PV001 territory; cost-wise it cannot be priced.
	dyn := unboundedBy(fmt.Sprintf("call to unresolvable callee %q at %s", id.name, ex.pos))
	dyn.dynamic = true
	return b.add(dyn)
}

// builtinAllocCost estimates the script values a host/builtin call
// allocates (advisory; see HandlerCost.Allocs).
func builtinAllocCost(name string) int64 {
	switch name {
	case "str", "push", "unshift", "slice", "concat", "reverse", "sort", "range",
		"keys", "values", "split", "substr", "upper", "lower", "trim", "join",
		"json_encode", "json_decode", "call_service":
		return 1
	}
	return 0
}

// ---- loop-bound inference ----

// inferForIterations matches the counted-loop idiom and returns the number
// of body executions.
func (ca *costAnalysis) inferForIterations(st *forStmt) (int64, bool) {
	if st.init == nil || st.cond == nil || st.post == nil {
		return 0, false
	}

	// Induction variable and start value. The count only holds if nothing
	// outside the loop's own text can write the variable while it runs.
	var iv string
	var start float64
	switch init := st.init.(type) {
	case *declStmt:
		// Declared by the loop: a fresh binding per execution of the loop,
		// reachable only from the loop's text.
		v, ok := foldConst(init.init)
		if !ok {
			return 0, false
		}
		iv, start = init.name, v
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
		iv, start = id.name, v
	default:
		return 0, false
	}

	// Condition: iv OP const (or const OP iv, mirrored).
	cmp, ok := st.cond.(*binaryExpr)
	if !ok {
		return 0, false
	}
	op := cmp.op
	var limit float64
	if id, isID := cmp.x.(*identExpr); isID && id.name == iv {
		v, okc := foldConst(cmp.y)
		if !okc {
			return 0, false
		}
		limit = v
	} else if id, isID := cmp.y.(*identExpr); isID && id.name == iv {
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
	step, ok := inferStep(st.post, iv)
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

// inferStep extracts the per-iteration increment applied to iv.
func inferStep(post expr, iv string) (float64, bool) {
	switch p := post.(type) {
	case *updateExpr:
		id, ok := p.target.(*identExpr)
		if !ok || id.name != iv {
			return 0, false
		}
		if p.op == "++" {
			return 1, true
		}
		return -1, true
	case *assignExpr:
		id, ok := p.target.(*identExpr)
		if !ok || id.name != iv {
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
			switch bin.op {
			case "+":
				if lid, isID := bin.x.(*identExpr); isID && lid.name == iv {
					v, okc := foldConst(bin.y)
					return v, okc
				}
				if rid, isID := bin.y.(*identExpr); isID && rid.name == iv {
					v, okc := foldConst(bin.x)
					return v, okc
				}
			case "-":
				if lid, isID := bin.x.(*identExpr); isID && lid.name == iv {
					v, okc := foldConst(bin.y)
					return -v, okc
				}
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

// writes reports whether anything under n (including nested function
// literals, pessimistically: the closure could run inside the loop) assigns
// to name or redeclares it. A redeclaration shadows the induction variable;
// give up rather than model block scoping.
func writes(n node, name string) bool {
	if assignsName(n, name) {
		return true
	}
	found := false
	inspect(n, func(n node) bool {
		redeclares := false
		switch x := n.(type) {
		case *declStmt:
			redeclares = x.name == name
		case *forOfStmt:
			redeclares = x.varName == name
		case *tryStmt:
			redeclares = x.catch != nil && x.catchVar == name
		case *funcDecl:
			redeclares = x.fn.name == name
		}
		if redeclares {
			found = true
		}
		return !found
	})
	return found
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
