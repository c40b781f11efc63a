package script

import (
	"sort"
	"strconv"
)

// The pipetype inference pass (see shapes.go for the lattice and report
// types). Produced shapes come from a flow-insensitive per-function local
// environment iterated to fixpoint, with widening for module globals that
// escape; consumed shapes come from a demand walk of event_received with
// expected-kind contexts passed top-down and alias tracking for the
// message parameter.

type shapeCtx struct {
	names   *callees
	globals map[string]*Shape

	returns  callMemo[string, *Shape]
	consumes callMemo[string, *consumeFrag]
	envMemo  map[*funcLit]shapeEnv
}

// shapeEnv maps the bindings of the function being analyzed to their
// shapes.
type shapeEnv map[*binding]*Shape

// shapePass runs pipetype over a parsed module: module globals first, then
// per-scope analysis of the load scope and every top-level function. It
// reports PV018 at emit sites whose payload degrades to top or an open
// object.
func shapePass(prog *program, names *callees) (ShapeReport, []Diagnostic) {
	ctx := &shapeCtx{
		names:   names,
		globals: make(map[string]*Shape),
		envMemo: make(map[*funcLit]shapeEnv),
	}

	// Module globals: a global keeps its declaration shape only when the
	// module never re-assigns it, never passes it to a call, and never
	// writes through it — otherwise it widens to top.
	widened := make(map[*binding]bool)
	for _, s := range prog.stmts {
		scanWidens(s, widened)
	}
	for _, s := range prog.stmts {
		st, ok := s.(*declStmt)
		if !ok {
			continue
		}
		if _, isFunc := st.init.(*funcLit); isFunc {
			continue
		}
		switch {
		case widened[st.b]:
			ctx.globals[st.name] = topShape()
		case st.init == nil:
			ctx.globals[st.name] = kindShape(KindNull)
		default:
			ctx.globals[st.name] = ctx.evalShape(st.init, nil)
		}
	}

	// Emit collection: the load scope (top-level statements) plus every
	// top-level function body, each under its own stabilized environment.
	col := &emitCollector{ctx: ctx, warned: make(map[Position]bool)}
	for _, s := range prog.stmts {
		switch st := s.(type) {
		case *funcDecl:
			// Walked under its own environment below.
		case *declStmt:
			if _, isFunc := st.init.(*funcLit); !isFunc {
				col.walk(s, nil)
			}
		default:
			col.walk(s, nil)
		}
	}
	// Source order: a recursive helper's return shape depends on which
	// function of the cycle is entered first.
	for _, d := range names.funcs.inSourceOrder() {
		col.walk(d.fn.body, ctx.fixpointEnv(d.fn))
	}
	sites := col.sites
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].Pos.before(sites[j].Pos) })

	rep := ShapeReport{
		Emits:     make(map[string]*Shape),
		EmitSites: sites,
	}
	for _, s := range sites {
		if s.Target == "" {
			rep.DynamicEmit = rep.DynamicEmit.Join(s.Payload)
			continue
		}
		rep.Emits[s.Target] = rep.Emits[s.Target].Join(s.Payload)
	}

	if handler, ok := names.funcs["event_received"]; ok {
		rep.Consumed.HasHandler = true
		rep.Consumed.Fields = make(map[string]FieldUse)
		if len(handler.fn.params) > 0 {
			frag := ctx.consume(handler.fn, 0)
			rep.Consumed.Dynamic = frag.dynamic
			rep.Consumed.Fields = frag.fields
		}
	}
	return rep, col.diags
}

// scanWidens records the bindings an assignment target, a call argument or
// the root of a member/index write anywhere in the program (including nested
// function bodies) can land on.
func scanWidens(s stmt, into map[*binding]bool) {
	widen := func(e expr) {
		if root, ok := rootIdent(e); ok {
			for _, b := range root.binds {
				into[b] = true
			}
		}
	}
	inspect(s, func(n node) bool {
		switch ex := n.(type) {
		case *assignExpr:
			widen(ex.target)
		case *updateExpr:
			widen(ex.target)
		case *callExpr:
			for _, a := range ex.args {
				if _, ok := a.(*identExpr); ok {
					widen(a)
				}
			}
		}
		return true
	})
}

// rootIdent chases member/index chains to their base identifier.
func rootIdent(e expr) (*identExpr, bool) {
	for {
		switch ex := e.(type) {
		case *identExpr:
			return ex, true
		case *memberExpr:
			e = ex.obj
		case *indexExpr:
			e = ex.obj
		default:
			return nil, false
		}
	}
}

// local joins the shapes of the locals id can land on and reports whether
// there are any: a binding env holds (null while nothing is assigned to
// it), or one of a function env does not describe — a function nested in
// it, whose bindings are unknown (top) at analysis time.
func local(env shapeEnv, id *identExpr) (*Shape, bool) {
	var s *Shape
	found := false
	for _, b := range id.binds {
		v, ok := env[b]
		switch {
		case ok && v == nil:
			v = kindShape(KindNull)
		case !ok && b.fn != nil:
			v = topShape()
		case !ok:
			continue
		}
		s, found = s.Join(v), true
	}
	return s, found
}

// ---- produced side: local environments ----

// fixpointEnv computes the stabilized flow-insensitive local environment of
// a function: every local maps to the join of every shape assigned to it
// anywhere in the body (declarations with no initializer contribute null;
// parameters are top). Results are memoized per function literal.
func (c *shapeCtx) fixpointEnv(fl *funcLit) shapeEnv {
	if env, ok := c.envMemo[fl]; ok {
		return env
	}
	env := make(shapeEnv, len(fl.binds))
	for _, b := range fl.binds {
		if b.last.kind != declImplicit {
			env[b] = nil // declared, nothing assigned yet
		}
	}
	for _, b := range fl.paramBinds {
		env[b] = topShape()
	}
	p := &envPass{ctx: c, env: env}
	stable := false
	for i := 0; i < maxEnvPasses && !stable; i++ {
		p.changed = false
		inspect(fl.body, p.visit)
		stable = !p.changed
	}
	if !stable {
		// Did not converge under the pass cap: widen everything so the
		// result stays an over-approximation.
		for b, s := range env {
			if s != nil {
				env[b] = topShape()
			}
		}
	}
	c.envMemo[fl] = env
	return env
}

type envPass struct {
	ctx     *shapeCtx
	env     shapeEnv
	changed bool
}

// set joins s into a local's shape; a write that can land on several
// bindings joins into each.
func (p *envPass) set(b *binding, s *Shape) {
	old, ok := p.env[b]
	if !ok {
		return
	}
	nw := old.Join(s)
	if old.String() != nw.String() {
		p.env[b] = nw
		p.changed = true
	}
}

// visit folds one node's bindings into the environment: declarations,
// loop and catch variables, assignments and updates. It descends into nested
// function literals — a closure may write the enclosing function's locals.
func (p *envPass) visit(n node) bool {
	switch x := n.(type) {
	case *declStmt:
		switch x.init.(type) {
		case nil:
			p.set(x.b, kindShape(KindNull))
		case *funcLit:
			p.set(x.b, kindShape(KindFunction))
		default:
			p.set(x.b, p.ctx.evalShape(x.init, p.env))
		}
	case *forOfStmt:
		p.set(x.b, elemShape(p.ctx.evalShape(x.iter, p.env)))
	case *tryStmt:
		if x.catch != nil && x.catchVar != "" {
			p.set(x.catchB, topShape())
		}
	case *assignExpr:
		var val *Shape
		switch x.op {
		case "=":
			val = p.ctx.evalShape(x.value, p.env)
		case "+=":
			val = kindShape(KindNumber | KindString)
		default:
			val = kindShape(KindNumber)
		}
		p.assignTarget(x.target, val)
	case *updateExpr:
		p.assignTarget(x.target, kindShape(KindNumber))
	}
	return true
}

func (p *envPass) assignTarget(t expr, val *Shape) {
	switch tx := t.(type) {
	case *identExpr:
		p.setIdent(tx, val)
	case *memberExpr:
		if id, ok := tx.obj.(*identExpr); ok {
			p.setIdent(id, &Shape{Kinds: KindObject, Fields: map[string]*Shape{tx.name: val}})
			return
		}
		// A write through a nested path makes the root's field set
		// inexact.
		if root, ok := rootIdent(tx.obj); ok {
			p.setIdent(root, &Shape{Kinds: KindObject | KindArray, Open: true, Elem: topShape()})
		}
	case *indexExpr:
		if root, ok := rootIdent(tx.obj); ok {
			p.setIdent(root, &Shape{Kinds: KindObject | KindArray, Open: true, Elem: topShape()})
		}
	}
}

// setIdent joins s into every local a write through id can land on.
func (p *envPass) setIdent(id *identExpr, s *Shape) {
	for _, b := range id.binds {
		p.set(b, s)
	}
}

// elemShape is the shape a for-of loop variable takes when iterating s.
func elemShape(s *Shape) *Shape {
	if s == nil || s.Top {
		return topShape()
	}
	var out *Shape
	if s.Kinds&KindArray != 0 {
		if s.Elem != nil {
			out = out.Join(s.Elem)
		} else {
			out = out.Join(kindShape(KindNull))
		}
	}
	if s.Kinds&KindString != 0 {
		out = out.Join(kindShape(KindString))
	}
	if s.Kinds&KindObject != 0 {
		// Iterating an object yields its keys.
		out = out.Join(kindShape(KindString))
	}
	if out == nil {
		return topShape()
	}
	return out
}

// ---- produced side: expression shapes ----

func (c *shapeCtx) evalShape(e expr, env shapeEnv) *Shape {
	return c.evalDepth(e, env, 0)
}

// evalDepth computes an over-approximate shape for an expression. depth is
// structural (incremented at object/array nesting only).
func (c *shapeCtx) evalDepth(e expr, env shapeEnv, depth int) *Shape {
	switch ex := e.(type) {
	case nil:
		return kindShape(KindNull)
	case *numberLit:
		return kindShape(KindNumber)
	case *stringLit:
		return kindShape(KindString)
	case *boolLit:
		return kindShape(KindBool)
	case *nullLit:
		return kindShape(KindNull)
	case *identExpr:
		if s, ok := local(env, ex); ok {
			return s
		}
		if s, ok := c.globals[ex.name]; ok {
			return s
		}
		if _, ok := c.names.funcs[ex.name]; ok {
			return kindShape(KindFunction)
		}
		if _, ok := callSignatures[ex.name]; ok {
			return kindShape(KindFunction)
		}
		return topShape()
	case *objectLit:
		if depth >= maxShapeDepth {
			return topShape()
		}
		s := &Shape{Kinds: KindObject, Fields: make(map[string]*Shape, len(ex.fields))}
		for _, f := range ex.fields {
			s.Fields[f.key] = s.Fields[f.key].Join(c.evalDepth(f.value, env, depth+1))
		}
		return s
	case *arrayLit:
		if depth >= maxShapeDepth {
			return topShape()
		}
		s := &Shape{Kinds: KindArray}
		for _, el := range ex.elems {
			s.Elem = s.Elem.Join(c.evalDepth(el, env, depth+1))
		}
		return s
	case *funcLit:
		return kindShape(KindFunction)
	case *unaryExpr:
		switch ex.op {
		case "!":
			return kindShape(KindBool)
		case "-", "+":
			return kindShape(KindNumber)
		}
		return topShape()
	case *binaryExpr:
		switch ex.op {
		case "+":
			return kindShape(KindNumber | KindString)
		case "-", "*", "/", "%":
			return kindShape(KindNumber)
		case "<", "<=", ">", ">=", "==", "!=", "===", "!==":
			return kindShape(KindBool)
		}
		return topShape()
	case *logicalExpr:
		return c.evalDepth(ex.x, env, depth).Join(c.evalDepth(ex.y, env, depth))
	case *condExpr:
		return c.evalDepth(ex.then, env, depth).Join(c.evalDepth(ex.elsE, env, depth))
	case *assignExpr:
		switch ex.op {
		case "=":
			return c.evalDepth(ex.value, env, depth)
		case "+=":
			return kindShape(KindNumber | KindString)
		}
		return kindShape(KindNumber)
	case *updateExpr:
		return kindShape(KindNumber)
	case *callExpr:
		return c.callShape(ex)
	case *memberExpr:
		return fieldShape(c.evalDepth(ex.obj, env, depth), ex.name)
	case *indexExpr:
		return indexShape(c.evalDepth(ex.obj, env, depth))
	}
	return topShape()
}

// callShape is what a call returns: a module function's return shape, a
// builtin's known kind, null from the host's call_module; anything else, a
// call through a local or module value among them, is top.
func (c *shapeCtx) callShape(ex *callExpr) *Shape {
	id, ok := ex.callee.(*identExpr)
	if !ok {
		return topShape()
	}
	if def, ok := c.names.function(id); ok {
		return c.returnShape(def)
	}
	if !c.names.builtin(id) {
		return topShape()
	}
	if id.name == "call_module" {
		return kindShape(KindNull)
	}
	if k, known := builtinReturnKinds[id.name]; known {
		return kindShape(k)
	}
	return topShape()
}

// fieldShape reads a field off an object shape. A present field may still
// be absent at runtime (fields are a may-union), so null joins in.
func fieldShape(obj *Shape, name string) *Shape {
	if obj == nil || obj.Top {
		return topShape()
	}
	if obj.Kinds&KindObject == 0 {
		return topShape()
	}
	if f, ok := obj.Fields[name]; ok {
		return f.Join(kindShape(KindNull))
	}
	if obj.Open || obj.Kinds&^KindObject != 0 {
		return topShape()
	}
	return kindShape(KindNull)
}

func indexShape(obj *Shape) *Shape {
	if obj == nil || obj.Top || obj.Kinds&KindObject != 0 {
		return topShape()
	}
	var out *Shape
	if obj.Kinds&KindArray != 0 {
		out = out.Join(obj.Elem).Join(kindShape(KindNull))
	}
	if obj.Kinds&KindString != 0 {
		out = out.Join(kindShape(KindString))
	}
	if out == nil {
		return topShape()
	}
	return out
}

// returnShape computes a function's return shape, memoized with recursion
// detection (recursion widens to top).
func (c *shapeCtx) returnShape(def funcDef) *Shape {
	return c.returns.visit(def.name, topShape, func() *Shape {
		env := c.fixpointEnv(def.fn)
		// Falling off the end returns null.
		ret := kindShape(KindNull)
		inspect(def.fn.body, func(n node) bool {
			switch x := n.(type) {
			case *funcLit:
				return false // its returns are its own
			case *returnStmt:
				ret = ret.Join(c.evalShape(x.value, env))
			}
			return true
		})
		return ret
	})
}

// ---- emit collection ----

type emitCollector struct {
	ctx    *shapeCtx
	sites  []EmitSite
	diags  []Diagnostic
	warned map[Position]bool
}

// walk collects the emit sites under n, nested function literals included:
// env knows their bindings as locals of unknown shape.
func (col *emitCollector) walk(n node, env shapeEnv) {
	inspect(n, func(n node) bool {
		if call, ok := n.(*callExpr); ok {
			col.emit(call, env)
		}
		return true
	})
}

// emit records a call_module site and reports PV018 when the payload shape
// degrades to top or an open object.
func (col *emitCollector) emit(call *callExpr, env shapeEnv) {
	id, ok := call.callee.(*identExpr)
	if !ok || id.name != "call_module" || len(call.args) == 0 || !col.ctx.names.builtin(id) {
		return
	}
	target := ""
	if s, isLit := call.args[0].(*stringLit); isLit {
		target = s.value
	}
	var payload *Shape
	if len(call.args) >= 2 {
		payload = col.ctx.evalShape(call.args[1], env)
	} else {
		// A missing payload delivers an empty body.
		payload = &Shape{Kinds: KindObject, Fields: map[string]*Shape{}}
	}
	col.sites = append(col.sites, EmitSite{Target: target, Pos: call.pos, Payload: payload})
	if payload.IsTop() || (payload.Kinds&KindObject != 0 && payload.Open) {
		if !col.warned[call.pos] {
			col.warned[call.pos] = true
			col.diags = append(col.diags, Diagnostic{
				Pos:      call.pos,
				Code:     CodeShapeUnknown,
				Severity: SeverityWarning,
				Message:  "call_module payload shape is unknowable (dynamic construction); downstream edge contract checks degrade to any",
			})
		}
	}
}

// ---- consumed side ----

type consumeFrag struct {
	dynamic bool
	fields  map[string]FieldUse
}

// consumeFunc is consume for an interprocedural query — a helper handed the
// message as argument paramIdx — memoized per (function, parameter);
// recursion degrades to dynamic.
func (c *shapeCtx) consumeFunc(def funcDef, paramIdx int) *consumeFrag {
	recursion := func() *consumeFrag {
		return &consumeFrag{dynamic: true, fields: map[string]FieldUse{}}
	}
	return c.consumes.visit(def.name+"#"+strconv.Itoa(paramIdx), recursion, func() *consumeFrag {
		return c.consume(def.fn, paramIdx)
	})
}

// consume infers which fields of parameter paramIdx a function reads.
func (c *shapeCtx) consume(fl *funcLit, paramIdx int) *consumeFrag {
	frag := &consumeFrag{fields: make(map[string]FieldUse)}
	if paramIdx >= len(fl.params) {
		return frag
	}
	// Re-declaring or re-assigning the message parameter poisons field
	// attribution: degrade to dynamic with no recorded fields rather than
	// risk a false PV015.
	param := fl.paramBinds[paramIdx]
	if param.last.kind != declParam || param.writes > 0 {
		frag.dynamic = true
		return frag
	}
	w := &consumeWalker{ctx: c, frag: frag, aliases: aliasSet(fl, param)}
	w.walk(fl.body)
	return frag
}

// aliasSet qualifies the bindings that alias the message parameter: one
// declared once, `var x = <alias>`, and never assigned. Chains (var a = m;
// var b = a) qualify transitively. An identifier is an alias when its
// innermost binding is one.
func aliasSet(fl *funcLit, param *binding) map[*binding]bool {
	aliases := map[*binding]bool{param: true}
	var cands []*declStmt
	inspect(fl.body, func(n node) bool {
		switch st := n.(type) {
		case *funcLit:
			return false
		case *declStmt:
			if _, ok := st.init.(*identExpr); ok && !st.b.redeclared() && st.b.writes == 0 {
				cands = append(cands, st)
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, st := range cands {
			if !aliases[st.b] && aliases[st.init.(*identExpr).bind] {
				aliases[st.b] = true
				changed = true
			}
		}
	}
	return aliases
}

type consumeWalker struct {
	ctx     *shapeCtx
	frag    *consumeFrag
	aliases map[*binding]bool
}

// alias reports whether e is a bare identifier naming the message. One that
// only may — its innermost binding is not an alias but one further out is,
// and shows until the inner declaration runs — makes the message's use
// unknowable.
func (w *consumeWalker) alias(e expr) bool {
	id, ok := e.(*identExpr)
	if !ok {
		return false
	}
	if w.aliases[id.bind] {
		return true
	}
	for _, b := range id.binds {
		w.frag.dynamic = w.frag.dynamic || w.aliases[b]
	}
	return false
}

func (w *consumeWalker) record(field string, want KindSet, pos Position) {
	fu, ok := w.frag.fields[field]
	if !ok {
		w.frag.fields[field] = FieldUse{Pos: pos, Kinds: want}
		return
	}
	fu.Kinds = combineReq(fu.Kinds, want)
	w.frag.fields[field] = fu
}

// combineReq merges two kind requirements for the same field: no-
// constraint defers to the other side; overlapping constraints intersect;
// contradictory constraints fall back to the union (the script itself is
// inconsistent — don't manufacture an edge error from it).
func combineReq(a, b KindSet) KindSet {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if a&b != 0 {
		return a & b
	}
	return a | b
}

func (w *consumeWalker) merge(f *consumeFrag) {
	if f.dynamic {
		w.frag.dynamic = true
	}
	for name, fu := range f.fields {
		w.record(name, fu.Kinds, fu.Pos)
	}
}

// walk hands every expression under a statement to expr — with no kind
// expectation, except a for-of iterable — and skips the two statement forms
// that are not a use of what they mention.
func (w *consumeWalker) walk(n node) {
	inspect(n, func(n node) bool {
		switch x := n.(type) {
		case *declStmt:
			if w.alias(x.init) && w.aliases[x.b] {
				// A qualified alias declaration is not a wholesale use.
				return false
			}
		case *forOfStmt:
			if w.alias(x.iter) {
				// Iterating the message consumes every field.
				w.frag.dynamic = true
			} else {
				w.expr(x.iter, KindObject|KindArray|KindString)
			}
			w.walk(x.body)
			return false
		case expr:
			w.expr(x, 0)
			return false
		}
		return true
	})
}

func (w *consumeWalker) expr(e expr, want KindSet) {
	switch ex := e.(type) {
	case nil, *numberLit, *stringLit, *boolLit, *nullLit:
	case *identExpr:
		if w.alias(ex) {
			// Bare use in an unknown context: the whole message escapes.
			w.frag.dynamic = true
		}
	case *arrayLit:
		for _, el := range ex.elems {
			w.expr(el, 0)
		}
	case *objectLit:
		for _, f := range ex.fields {
			w.expr(f.value, 0)
		}
	case *funcLit:
		// A nested function's own parameters and declarations shadow an
		// alias through its bindings.
		w.walk(ex.body)
	case *unaryExpr:
		switch ex.op {
		case "-", "+":
			w.expr(ex.x, KindNumber)
		default:
			w.expr(ex.x, 0)
		}
	case *binaryExpr:
		switch ex.op {
		case "-", "*", "/", "%":
			w.expr(ex.x, KindNumber)
			w.expr(ex.y, KindNumber)
		case "+", "<", "<=", ">", ">=":
			w.expr(ex.x, KindNumber|KindString)
			w.expr(ex.y, KindNumber|KindString)
		default:
			w.expr(ex.x, 0)
			w.expr(ex.y, 0)
		}
	case *logicalExpr:
		w.expr(ex.x, 0)
		w.expr(ex.y, 0)
	case *condExpr:
		w.expr(ex.cond, 0)
		w.expr(ex.then, want)
		w.expr(ex.elsE, want)
	case *assignExpr:
		w.target(ex.target, ex.op)
		w.expr(ex.value, 0)
	case *updateExpr:
		w.target(ex.target, "")
	case *callExpr:
		w.call(ex)
	case *memberExpr:
		if w.alias(ex.obj) {
			w.record(ex.name, want, ex.pos)
			return
		}
		w.expr(ex.obj, KindObject)
	case *indexExpr:
		if w.alias(ex.obj) {
			if s, isLit := ex.index.(*stringLit); isLit {
				w.record(s.value, want, ex.pos)
			} else {
				w.frag.dynamic = true
				w.expr(ex.index, 0)
			}
			return
		}
		w.expr(ex.obj, KindObject|KindArray|KindString)
		w.expr(ex.index, 0)
	}
}

// target walks the left side of an assignment whose operator is op, or of
// ++/-- (op ""). A bare name is never an alias: writing one disqualifies it.
// A pure write through an alias adds a field without reading it; a
// compound one reads the field first.
func (w *consumeWalker) target(t expr, op string) {
	switch tx := t.(type) {
	case *memberExpr:
		switch {
		case !w.alias(tx.obj):
			w.expr(tx.obj, KindObject)
		case op == "+=":
			w.record(tx.name, KindNumber|KindString, tx.pos)
		case op != "=":
			w.record(tx.name, KindNumber, tx.pos)
		}
	case *indexExpr:
		if !w.alias(tx.obj) {
			w.expr(tx.obj, KindObject|KindArray|KindString)
			w.expr(tx.index, 0)
			return
		}
		s, isLit := tx.index.(*stringLit)
		switch {
		case op == "=":
		case !isLit:
			w.frag.dynamic = true
		case op == "":
			w.record(s.value, KindNumber, tx.pos)
		default:
			w.record(s.value, KindNumber|KindString, tx.pos)
		}
		if op != "" {
			w.expr(tx.index, 0)
		}
	}
}

func (w *consumeWalker) call(ex *callExpr) {
	id, isIdent := ex.callee.(*identExpr)
	if !isIdent {
		w.expr(ex.callee, KindFunction)
		for _, a := range ex.args {
			w.argDefault(a)
		}
		return
	}
	if def, ok := w.ctx.names.function(id); ok {
		for i, a := range ex.args {
			if w.alias(a) {
				w.merge(w.ctx.consumeFunc(def, i))
				continue
			}
			w.expr(a, 0)
		}
		return
	}
	if w.ctx.names.builtin(id) {
		// has(message, "field") names a field without consuming the whole
		// message — the idiomatic existence guard.
		if id.name == "has" && len(ex.args) == 2 && w.alias(ex.args[0]) {
			if s, isLit := ex.args[1].(*stringLit); isLit {
				w.record(s.value, 0, ex.pos)
			} else {
				w.frag.dynamic = true
				w.expr(ex.args[1], KindString)
			}
			return
		}
		if sig, ok := callSignatures[id.name]; ok {
			for i, a := range ex.args {
				if w.alias(a) {
					// The whole message escapes into a builtin or host call
					// (call_module, json_encode, keys, ...).
					w.frag.dynamic = true
					continue
				}
				w.expr(a, paramKinds(sig, i))
			}
			return
		}
	}
	for _, a := range ex.args {
		w.argDefault(a)
	}
}

func (w *consumeWalker) argDefault(a expr) {
	if w.alias(a) {
		w.frag.dynamic = true
		return
	}
	w.expr(a, 0)
}

func paramKinds(sig Signature, i int) KindSet {
	if i < len(sig.Params) {
		return kindsFromType(sig.Params[i].Type)
	}
	if sig.Rest != "" {
		return kindsFromType(sig.Rest)
	}
	return 0
}
