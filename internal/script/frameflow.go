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
// The check is a domain of the forward walk (flow.go), intra-procedural and
// pessimistic at merges (a frame is resolved only when every surviving path
// resolved it): a break or continue carries its pending set to the end of
// its loop or switch, and a matched case falls through into the next. One
// indirection is allowed: calling a top-level helper function whose body
// itself calls frame_done or call_module counts as resolving. A call counts
// only when it reaches the host binding or the module's own function, not a
// local or module value of the same name. throw paths are exempt — the
// runtime's abandoned-frame hook reclaims the credit when an event fails
// (internal/device/module.go).

// flowPend is the per-path set of call_service positions whose frame
// reference has not been forwarded or dropped yet. No effect changes a set
// in place, so two paths can share one.
type flowPend []Position

func addPend(pend flowPend, pos Position) flowPend {
	for _, p := range pend {
		if p == pos {
			return pend
		}
	}
	return append(pend[:len(pend):len(pend)], pos)
}

// frameFlow runs the PV011 check over the module's top-level
// event_received handler, if any.
func (a *analyzer) frameFlow(names *callees) {
	handler, ok := names.funcs["event_received"]
	if !ok {
		return
	}
	f := &frameFlowChecker{a: a, names: names, reported: map[Position]bool{}}
	(&flowWalk[flowPend]{d: f}).body(handler.fn.body.stmts, nil)
}

// frameFlowChecker is PV011's domain of the forward walk (flow.go).
type frameFlowChecker struct {
	a        *analyzer
	names    *callees
	reported map[Position]bool // dedupes one call_service reported from several exits
	rewalk   int               // loops whose second walk is running (see loop)
}

// at applies a call's frame-flow effect: call_service marks the frame
// pending, frame_done / call_module / a resolving helper clears it. Only a
// call that reaches the host binding, or the module's own helper, counts.
func (f *frameFlowChecker) at(n node, pend flowPend) flowPend {
	call, ok := n.(*callExpr)
	if !ok {
		return pend
	}
	id, ok := call.callee.(*identExpr)
	switch {
	case !ok:
	case f.names.builtin(id):
		switch id.name {
		case "call_service":
			return addPend(pend, call.pos)
		case "frame_done", "call_module":
			return nil
		}
	default:
		// A helper that drops or forwards the frame resolves it for its caller.
		if def, isFunc := f.names.function(id); isFunc && def.name != "event_received" && f.resolves(def.fn.body) {
			return nil
		}
	}
	return pend
}

// join unites the pending sets of two paths that meet.
func (*frameFlowChecker) join(a, b flowPend) flowPend {
	for _, p := range b {
		a = addPend(a, p)
	}
	return a
}

func (*frameFlowChecker) ends() bool { return true }

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

// loop walks the body once: every effect adds a position or empties the
// set, so the state before the loop united with the state after one
// iteration already holds what any number of iterations can leave by the
// test. A break or a return in the body, though, ends its path inside a
// later iteration, which starts from that union, so when the first
// iteration added a position the body is walked a second time from the
// union, which carries it to each of them. A loop met during an enclosing
// loop's second walk walks once: what its own second walk would add starts
// from the positions its body adds, whatever it is handed, and the
// enclosing loop's first walk has already carried those everywhere they
// reach. So a loop inside d loops is walked at most d+2 times, not 2^d.
func (f *frameFlowChecker) loop(_ node, pend flowPend, head, iter func(flowPend) flowPend) flowPend {
	pend = head(pend)
	next := f.join(pend, iter(pend))
	if f.rewalk == 0 && len(next) > len(pend) {
		f.rewalk++
		next = f.join(next, iter(next))
		f.rewalk--
	}
	return next
}

// resolves reports whether a helper's body itself calls frame_done or
// call_module — the helper-function allowance. A call inside a nested
// function literal runs later, if ever, and does not count.
func (f *frameFlowChecker) resolves(body *blockStmt) bool {
	found := false
	inspect(body, func(n node) bool {
		switch x := n.(type) {
		case *funcLit:
			return false
		case *callExpr:
			id, ok := x.callee.(*identExpr)
			found = ok && (id.name == "frame_done" || id.name == "call_module") && f.names.builtin(id)
		}
		return !found
	})
	return found
}
