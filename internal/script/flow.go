package script

// The forward walk under pipecost (cost.go) and PV011's frame flow
// (frameflow.go). It threads a domain's state through code in the
// interpreter's evaluation order — a node's operands before the node, a
// call's arguments before its callee — forking at every branch and joining
// the arms after it. A break carries its state to the end of its loop or
// switch, a continue to the loop's next test, and a matched switch case
// falls through the cases after it; a jump out of a try runs its finally
// first. This is the only statement/expression switch the two passes have:
// a new node type needs a case here, not one per pass. Function literals
// are not entered; their bodies run when called.

// flowDomain is what one forward walk computes: a state S threaded through
// the code. A hook never changes a state in place, so two arms of a branch
// can start from one value.
type flowDomain[S any] interface {
	// at applies node n's own effect once its operands have been walked.
	// A loop statement meets it again at each iteration's step.
	at(n node, s S) S
	// join merges the states of two paths that meet.
	join(a, b S) S
	// ends reports whether return, throw, break and continue end the path
	// that reaches them; when they do not, the walk goes on past them.
	ends() bool
	// exit sees the state a return, or falling off the end of the body,
	// leaves the function with.
	exit(s S)
	// loop combines a loop's walks. head walks what runs before the first
	// iteration, up to and including the first exit test; iter walks one
	// iteration, up to and including the next exit test (for-of: one item,
	// whose test is free). An iteration no path survives returns its input.
	loop(n node, s S, head, iter func(S) S) S
}

// flowWalk is one walk over one function body or module top level.
type flowWalk[S any] struct {
	d flowDomain[S]
	// brk and cont collect the states break and continue carry to the
	// innermost enclosing loop or switch, ret those a return carries to the
	// innermost enclosing finally (nil: to the function's exit).
	brk, cont, ret *[]S
}

// body walks a function body, or a module's top level, from s and returns
// the state at its end.
func (w *flowWalk[S]) body(list []stmt, s S) S {
	s, live := w.stmts(list, s)
	if live {
		w.d.exit(s)
	}
	return s
}

// stmts walks a statement list; live is false once every path through it
// has ended.
func (w *flowWalk[S]) stmts(list []stmt, s S) (_ S, live bool) {
	for _, st := range list {
		if s, live = w.stmt(st, s); !live {
			return s, false
		}
	}
	return s, true
}

func (w *flowWalk[S]) stmt(n stmt, s S) (S, bool) {
	s = w.d.at(n, s)
	switch x := n.(type) {
	case *exprStmt:
		s = w.expr(x.x, s)
	case *declStmt:
		s = w.expr(x.init, s)
	case *blockStmt:
		return w.stmts(x.stmts, s)
	case *ifStmt:
		s = w.expr(x.cond, s)
		then, thenLive := w.stmt(x.then, s)
		if x.elsE == nil {
			return w.merge(then, thenLive, s, true)
		}
		els, elsLive := w.stmt(x.elsE, s)
		return w.merge(then, thenLive, els, elsLive)
	case *whileStmt:
		return w.loop(x, s, nil, x.cond, x.body, nil)
	case *forStmt:
		return w.loop(x, s, x.init, x.cond, x.body, x.post)
	case *forOfStmt:
		return w.loop(x, s, x.iter, nil, x.body, nil)
	case *returnStmt:
		s = w.expr(x.value, s)
		if w.ret == nil {
			w.d.exit(s)
		}
		return w.jump(w.ret, s)
	case *throwStmt:
		return w.jump(nil, w.expr(x.value, s))
	case *breakStmt:
		return w.jump(w.brk, s)
	case *continueStmt:
		return w.jump(w.cont, s)
	case *tryStmt:
		// A return, break or continue that leaves a try with a finally
		// stops there first; each kind runs finally once, on all of their
		// states joined, then goes on out.
		outer := [3]*[]S{w.ret, w.brk, w.cont}
		var jumps [3][]S
		if x.finally != nil && w.d.ends() {
			w.ret, w.brk, w.cont = &jumps[0], &jumps[1], &jumps[2]
		}
		body, live := w.stmt(x.body, s)
		if x.catch != nil {
			// The body can throw anywhere, so the catch starts from any
			// state between the body's first and last.
			in, _ := w.merge(s, true, body, live)
			catch, catchLive := w.stmts(x.catch.stmts, in)
			body, live = w.merge(body, live, catch, catchLive)
		}
		w.ret, w.brk, w.cont = outer[0], outer[1], outer[2]
		for i, js := range jumps {
			if len(js) == 0 {
				continue
			}
			j, _ := w.gather(js[0], true, js[1:])
			if j, on := w.stmt(x.finally, j); on && outer[i] != nil {
				*outer[i] = append(*outer[i], j)
			} else if on && i == 0 {
				w.d.exit(j)
			}
		}
		if x.finally != nil {
			// A path that left by a throw still runs finally, and stays ended.
			fin, finLive := w.stmt(x.finally, body)
			return fin, live && finLive
		}
		return body, live
	case *switchStmt:
		outer := w.brk
		var brk []S
		w.brk = &brk
		s = w.expr(x.subject, s)
		var fall S
		fallLive := false
		for _, c := range x.cases {
			s = w.expr(c.value, s)
			// This case matched, or the one above fell into it.
			in, _ := w.merge(fall, fallLive, s, true)
			fall, fallLive = w.stmts(c.body, in)
		}
		def, defLive := w.stmts(x.defaultBody, s)
		w.brk = outer
		out, live := w.merge(fall, fallLive, def, defLive)
		return w.gather(out, live, brk)
	}
	return s, true // a funcDecl's body runs when it is called
}

// jump ends the path at a return, throw, break or continue, if the domain
// ends paths there, handing its state to where the jump lands (to is nil
// for a return or throw).
func (w *flowWalk[S]) jump(to *[]S, s S) (S, bool) {
	if !w.d.ends() {
		return s, true
	}
	if to != nil {
		*to = append(*to, s)
	}
	return s, false
}

// merge joins two paths' states; a path that has ended adds nothing.
func (w *flowWalk[S]) merge(a S, aLive bool, b S, bLive bool) (S, bool) {
	switch {
	case !aLive:
		return b, bLive
	case !bLive:
		return a, true
	}
	return w.d.join(a, b), true
}

// gather merges the states jumps carried to one place into s.
func (w *flowWalk[S]) gather(s S, live bool, jumps []S) (S, bool) {
	for _, j := range jumps {
		s, live = w.merge(s, live, j, true)
	}
	return s, live
}

// loop walks loop statement n. init (a for's initializer, a for-of's
// iterable) runs once; a while or for loop steps and tests cond before each
// iteration and once more to leave, a for-of steps as each item starts.
// Breaks in the body rejoin after the loop, continues before post. A loop
// whose test is missing or constantly true is left only by its breaks, in a
// domain where paths end at jumps: the state the test would leave with
// reaches nothing, and with no break nothing follows the loop.
func (w *flowWalk[S]) loop(n stmt, s S, init node, cond expr, body stmt, post expr) (S, bool) {
	_, forOf := n.(*forOfStmt)
	test := func(s S) S {
		if forOf {
			return s
		}
		return w.expr(cond, w.d.at(n, s))
	}
	outerBrk, outerCont := w.brk, w.cont
	var brk, cont []S
	w.brk, w.cont = &brk, &cont
	head := func(s S) S {
		switch x := init.(type) {
		case stmt:
			s, _ = w.stmt(x, s)
		case expr:
			s = w.expr(x, s)
		}
		return test(s)
	}
	iter := func(in S) S {
		s := in
		if forOf {
			s = w.d.at(n, s)
		}
		cont = nil
		s, live := w.stmt(body, s)
		if s, live = w.gather(s, live, cont); !live {
			return in
		}
		return test(w.expr(post, s))
	}
	s = w.d.loop(n, s, head, iter)
	w.brk, w.cont = outerBrk, outerCont
	return w.gather(s, !(endless(n) && w.d.ends()), brk)
}

// endless reports whether loop n has no test, or one that is constantly
// true, so that only a jump leaves it.
func endless(n node) bool {
	var cond expr
	switch x := n.(type) {
	case *whileStmt:
		cond = x.cond
	case *forStmt:
		cond = x.cond
	default:
		return false
	}
	v, isConst := foldConst(cond)
	return cond == nil || isConst && v != 0
}

// expr walks e's operands, then e.
func (w *flowWalk[S]) expr(e expr, s S) S {
	switch x := e.(type) {
	case nil:
		return s
	case *arrayLit:
		for _, el := range x.elems {
			s = w.expr(el, s)
		}
	case *objectLit:
		for _, f := range x.fields {
			s = w.expr(f.value, s)
		}
	case *unaryExpr:
		s = w.expr(x.x, s)
	case *binaryExpr:
		s = w.expr(x.y, w.expr(x.x, s))
	case *logicalExpr:
		// The right operand runs on one path only.
		s = w.expr(x.x, s)
		s = w.d.join(s, w.expr(x.y, s))
	case *condExpr:
		s = w.expr(x.cond, s)
		s = w.d.join(w.expr(x.then, s), w.expr(x.elsE, s))
	case *assignExpr:
		s = w.expr(x.value, s)
		if x.op != "=" {
			s = w.expr(x.target, s) // a compound assignment reads its target first
		}
		s = w.target(x.target, s)
	case *updateExpr:
		s = w.target(x.target, w.expr(x.target, s))
	case *callExpr:
		for _, a := range x.args {
			s = w.expr(a, s)
		}
		s = w.expr(x.callee, s)
	case *memberExpr:
		s = w.expr(x.obj, s)
	case *indexExpr:
		s = w.expr(x.index, w.expr(x.obj, s))
	}
	return w.d.at(e, s)
}

// target walks what writing to an assignment target evaluates again: a
// member's object, an index expression's object and index (interp.go's
// writeTarget).
func (w *flowWalk[S]) target(e expr, s S) S {
	switch x := e.(type) {
	case *memberExpr:
		return w.expr(x.obj, s)
	case *indexExpr:
		return w.expr(x.index, w.expr(x.obj, s))
	}
	return s
}
