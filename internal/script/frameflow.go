package script

// PV011: the script-level mirror of vpvet's framerelease check. An
// event_received handler holds the incoming frame's flow-control credit
// (and usually a frame_ref) until it either drops the frame with
// frame_done() or forwards it downstream with call_module(...). A path
// that performs a call_service — the module is clearly still working on
// the frame — and then falls off the handler without doing either leaves
// the frame stranded: the credit never returns to the source and the
// pipeline's window shrinks by one forever.
//
// The analysis is intra-procedural and pessimistic at merges (a frame is
// resolved only when every surviving path resolved it), with one
// indirection allowance: calling a top-level helper function whose body
// itself calls frame_done or call_module counts as resolving. throw paths
// are exempt — the runtime's abandoned-frame hook reclaims the credit
// when an event fails (internal/device/module.go).

// flowPend is the per-path set of call_service positions whose frame
// reference has not been forwarded or dropped yet.
type flowPend []Position

func clonePend(p flowPend) flowPend {
	return append(flowPend(nil), p...)
}

func unionPend(a, b flowPend) flowPend {
	out := clonePend(a)
	for _, p := range b {
		out = addPend(out, p)
	}
	return out
}

func addPend(pend flowPend, pos Position) flowPend {
	for _, p := range pend {
		if p == pos {
			return pend
		}
	}
	return append(pend, pos)
}

// frameFlow runs the PV011 check over the module's top-level
// event_received handler, if any.
func (a *analyzer) frameFlow(funcs funcTable) {
	handler, ok := funcs["event_received"]
	if !ok {
		return
	}
	// A helper that drops or forwards the frame resolves it for its caller.
	resolvers := map[string]bool{}
	for name, d := range funcs {
		if name != "event_received" && resolvesFrame(d.fn.body) {
			resolvers[name] = true
		}
	}
	f := &frameFlowChecker{a: a, resolvers: resolvers, reported: map[Position]bool{}}
	pend, term := f.walkStmts(handler.fn.body.stmts, nil)
	if !term {
		f.exit(pend)
	}
}

type frameFlowChecker struct {
	a         *analyzer
	resolvers map[string]bool
	reported  map[Position]bool // dedupes one call_service reported from several exits
}

// exit reports every call_service whose frame is still pending when the
// handler returns.
func (f *frameFlowChecker) exit(pend flowPend) {
	for _, p := range pend {
		if f.reported[p] {
			continue
		}
		f.reported[p] = true
		f.a.diag(p, CodeFrameHeld, SeverityWarning,
			"frame reference held across call_service is neither forwarded (call_module) nor dropped (frame_done) before event_received returns on some path")
	}
}

// walkStmts processes a list, returning the pending set and whether the
// list unconditionally terminates.
func (f *frameFlowChecker) walkStmts(list []stmt, pend flowPend) (flowPend, bool) {
	for _, s := range list {
		var term bool
		pend, term = f.walkStmt(s, pend)
		if term {
			return nil, true
		}
	}
	return pend, false
}

func (f *frameFlowChecker) walkStmt(s stmt, pend flowPend) (flowPend, bool) {
	switch st := s.(type) {
	case *exprStmt:
		return f.scanExpr(st.x, pend), false

	case *declStmt:
		if st.init != nil {
			pend = f.scanExpr(st.init, pend)
		}
		return pend, false

	case *blockStmt:
		return f.walkStmts(st.stmts, pend)

	case *ifStmt:
		pend = f.scanExpr(st.cond, pend)
		thenPend, thenTerm := f.walkStmt(st.then, clonePend(pend))
		elsePend, elseTerm := clonePend(pend), false
		if st.elsE != nil {
			elsePend, elseTerm = f.walkStmt(st.elsE, elsePend)
		}
		switch {
		case thenTerm && elseTerm:
			return nil, true
		case thenTerm:
			return elsePend, false
		case elseTerm:
			return thenPend, false
		default:
			return unionPend(thenPend, elsePend), false
		}

	case *whileStmt:
		pend = f.scanExpr(st.cond, pend)
		bodyPend, _ := f.walkStmt(st.body, clonePend(pend))
		return unionPend(pend, bodyPend), false

	case *forStmt:
		if st.init != nil {
			pend, _ = f.walkStmt(st.init, pend)
		}
		if st.cond != nil {
			pend = f.scanExpr(st.cond, pend)
		}
		bodyPend, _ := f.walkStmt(st.body, clonePend(pend))
		if st.post != nil {
			bodyPend = f.scanExpr(st.post, bodyPend)
		}
		return unionPend(pend, bodyPend), false

	case *forOfStmt:
		pend = f.scanExpr(st.iter, pend)
		bodyPend, _ := f.walkStmt(st.body, clonePend(pend))
		return unionPend(pend, bodyPend), false

	case *returnStmt:
		if st.value != nil {
			pend = f.scanExpr(st.value, pend)
		}
		f.exit(pend)
		return nil, true

	case *throwStmt:
		// A throw abandons the event; the runtime's onFrameAbandoned hook
		// returns the credit, so this is not a leak path.
		f.scanExpr(st.value, pend)
		return nil, true

	case *breakStmt, *continueStmt:
		return pend, true

	case *tryStmt:
		bodyPend, bodyTerm := f.walkStmts(st.body.stmts, clonePend(pend))
		var out flowPend
		term := false
		if bodyTerm {
			term = st.catch == nil
		} else {
			out = bodyPend
		}
		if st.catch != nil {
			// The body may fail at any point, so the catch sees anything
			// between the pre- and post-body states.
			catchPend, catchTerm := f.walkStmts(st.catch.stmts, unionPend(pend, bodyPend))
			if !catchTerm {
				out = unionPend(out, catchPend)
			} else if bodyTerm {
				term = true
			}
		}
		if st.finally != nil {
			var fTerm bool
			out, fTerm = f.walkStmts(st.finally.stmts, out)
			term = term || fTerm
		}
		return out, term

	case *switchStmt:
		pend = f.scanExpr(st.subject, pend)
		var out flowPend
		allTerm := true
		for _, c := range st.cases {
			pend = f.scanExpr(c.value, pend)
			casePend, caseTerm := f.walkStmts(c.body, clonePend(pend))
			if !caseTerm {
				allTerm = false
				out = unionPend(out, casePend)
			}
		}
		if st.defaultBody != nil {
			defPend, defTerm := f.walkStmts(st.defaultBody, clonePend(pend))
			if !defTerm {
				allTerm = false
				out = unionPend(out, defPend)
			}
		} else {
			// No default: the no-case-matched path falls through unchanged.
			allTerm = false
			out = unionPend(out, pend)
		}
		return out, allTerm

	case *funcDecl:
		return pend, false // runs when called, not here
	}
	return pend, false
}

// scanExpr applies frame-flow effects in evaluation order: call_service
// marks the frame pending, frame_done / call_module / a resolving helper
// clears it. Calls inside a conditionally-evaluated operand only add
// obligations; they never clear them (the other path skipped the call).
func (f *frameFlowChecker) scanExpr(e expr, pend flowPend) flowPend {
	switch ex := e.(type) {
	case nil:
		return pend
	case *callExpr:
		for _, arg := range ex.args {
			pend = f.scanExpr(arg, pend)
		}
		if id, ok := ex.callee.(*identExpr); ok {
			switch {
			case id.name == "call_service":
				pend = addPend(clonePend(pend), ex.pos)
			case id.name == "frame_done" || id.name == "call_module" || f.resolvers[id.name]:
				pend = nil
			}
			return pend
		}
		return f.scanExpr(ex.callee, pend)
	case *unaryExpr:
		return f.scanExpr(ex.x, pend)
	case *binaryExpr:
		pend = f.scanExpr(ex.x, pend)
		return f.scanExpr(ex.y, pend)
	case *logicalExpr:
		// The right operand may be skipped: union its effects pessimistically.
		afterX := f.scanExpr(ex.x, pend)
		afterY := f.scanExpr(ex.y, clonePend(afterX))
		return unionPend(afterX, afterY)
	case *condExpr:
		pend = f.scanExpr(ex.cond, pend)
		thenPend := f.scanExpr(ex.then, clonePend(pend))
		elsePend := f.scanExpr(ex.elsE, clonePend(pend))
		return unionPend(thenPend, elsePend)
	case *assignExpr:
		pend = f.scanExpr(ex.value, pend)
		return f.scanExpr(ex.target, pend)
	case *updateExpr:
		return f.scanExpr(ex.target, pend)
	case *arrayLit:
		for _, el := range ex.elems {
			pend = f.scanExpr(el, pend)
		}
		return pend
	case *objectLit:
		for _, fl := range ex.fields {
			pend = f.scanExpr(fl.value, pend)
		}
		return pend
	case *memberExpr:
		return f.scanExpr(ex.obj, pend)
	case *indexExpr:
		pend = f.scanExpr(ex.obj, pend)
		return f.scanExpr(ex.index, pend)
	case *funcLit:
		return pend // executes later, in its own frame context
	}
	return pend
}

// resolvesFrame reports whether a function body contains a direct
// frame_done or call_module call — the helper-function allowance. A call
// inside a nested function literal runs later, if ever, and does not count.
func resolvesFrame(body *blockStmt) bool {
	found := false
	inspect(body, func(n node) bool {
		switch x := n.(type) {
		case *funcLit:
			return false
		case *callExpr:
			if id, ok := x.callee.(*identExpr); ok && (id.name == "frame_done" || id.name == "call_module") {
				found = true
			}
		}
		return !found
	})
	return found
}
