package golint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The forward walk under framerelease and lockdiscipline's held-lock rule.
// It threads a domain's state through one Go function body in statement
// order, forking at every branch and joining the arms that do not end
// after it. The rules are the walk's, the same for both analyzers:
//
//   - a return, break, continue or goto ends its path; the domain says
//     which other statements (a panic) end one. A break leaves its
//     statement: the path goes on after it. A continue ends its loop's
//     iteration, and so does a break out of a loop;
//   - an if, switch or select whose arms all end ends the path; a switch
//     without a default also has the path through no arm;
//   - init statements, switch tags and case values, a type switch's guard,
//     a for loop's condition and post statement and a range's operand are
//     walked, each in the order Go runs them;
//   - a loop body is walked once, and the domain combines the state from
//     before it with each state an iteration can end in: the end of the
//     body and every continue, each followed by the post statement, and
//     every break.
//
// This is the only Go-statement switch the two analyzers have. Function
// literals are not entered; each analyzer meets them as functions of their
// own.

// goDomain is what one walk computes: a state S threaded through the body.
// The walk forks a state before handing it to an arm; a domain whose hooks
// never change a state in place may fork by returning it as is.
type goDomain[S any] interface {
	// fork copies a state for an arm of a branch.
	fork(s S) S
	// join merges the states of two arms that meet.
	join(a, b S) S
	// stmt applies a simple statement (an assignment, declaration,
	// expression, send, defer, go, inc/dec or return); false ends the path.
	stmt(n ast.Stmt, s S) (S, bool)
	// expr applies an expression evaluated for its value: a condition, tag,
	// case value or range operand. e may be nil.
	expr(e ast.Expr, s S) S
	// branch refines the forked arm states of an if by its condition.
	branch(cond ast.Expr, then, els S) (S, S)
	// loop combines the state before a loop with each state one walk of
	// its body can end an iteration in.
	loop(body *ast.BlockStmt, before S, ends []S) S
	// comm applies a select clause's communication; blocking is true when
	// the select has no default.
	comm(n ast.Stmt, blocking bool, s S) S
}

// goWalk is one walk over Go statements for one domain.
type goWalk[S any] struct {
	d goDomain[S]
	// targets are the statements a break or continue can leave, innermost
	// last; label is the label of the statement about to be walked.
	targets []target[S]
	label   string
}

// target is a loop, switch or select that a break (and, for a loop, a
// continue) can leave, with the states of the paths that did.
type target[S any] struct {
	label             string
	loop              bool
	breaks, continues []S
}

// stmts walks a statement list; live is false once every path through it
// has ended, and the state is then the one where the last path stopped.
func (w *goWalk[S]) stmts(list []ast.Stmt, s S) (_ S, live bool) {
	for _, n := range list {
		if s, live = w.stmt(n, s); !live {
			return s, false
		}
	}
	return s, true
}

func (w *goWalk[S]) stmt(n ast.Stmt, s S) (S, bool) {
	label := w.label
	w.label = ""
	switch x := n.(type) {
	case nil:
		return s, true
	case *ast.BlockStmt:
		return w.stmts(x.List, s)
	case *ast.LabeledStmt:
		w.label = x.Label.Name
		return w.stmt(x.Stmt, s)
	case *ast.BranchStmt:
		if t := w.target(x); t != nil && x.Tok == token.CONTINUE {
			t.continues = append(t.continues, s)
		} else if t != nil {
			t.breaks = append(t.breaks, s)
		}
		return s, false
	case *ast.ReturnStmt:
		s, _ = w.d.stmt(x, s)
		return s, false
	case *ast.IfStmt:
		s, _ = w.stmt(x.Init, s)
		s = w.d.expr(x.Cond, s)
		then, els := w.d.branch(x.Cond, w.d.fork(s), w.d.fork(s))
		then, thenLive := w.stmt(x.Body, then)
		els, elsLive := w.stmt(x.Else, els)
		out, live := w.merge(s, false, then, thenLive)
		return w.merge(out, live, els, elsLive)
	case *ast.ForStmt:
		s, _ = w.stmt(x.Init, s)
		s = w.d.expr(x.Cond, s)
		return w.d.loop(x.Body, s, w.iteration(x.Body, x.Post, label, s)), true
	case *ast.RangeStmt:
		s = w.d.expr(x.X, s)
		return w.d.loop(x.Body, s, w.iteration(x.Body, nil, label, s)), true
	case *ast.SwitchStmt:
		s, _ = w.stmt(x.Init, s)
		return w.clauses(x.Body, w.d.expr(x.Tag, s), false, label)
	case *ast.TypeSwitchStmt:
		s, _ = w.stmt(x.Init, s)
		s, _ = w.stmt(x.Assign, s)
		return w.clauses(x.Body, s, false, label)
	case *ast.SelectStmt:
		return w.clauses(x.Body, s, true, label)
	}
	return w.d.stmt(n, s)
}

// iteration walks a loop body once from s and returns every state the
// iteration can end in: the end of the body and each continue, with post
// walked after each, and each break out of the loop.
func (w *goWalk[S]) iteration(body *ast.BlockStmt, post ast.Stmt, label string, s S) []S {
	w.targets = append(w.targets, target[S]{label: label, loop: true})
	end, live := w.stmt(body, w.d.fork(s))
	t := w.pop()
	if live {
		t.continues = append(t.continues, end)
	}
	ends := make([]S, 0, len(t.continues)+len(t.breaks))
	for _, e := range t.continues {
		e, _ = w.stmt(post, e)
		ends = append(ends, e)
	}
	return append(ends, t.breaks...)
}

// target returns the statement a break or continue leaves, nil for a goto
// or fallthrough (whose paths just end).
func (w *goWalk[S]) target(b *ast.BranchStmt) *target[S] {
	if b.Tok != token.BREAK && b.Tok != token.CONTINUE {
		return nil
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := &w.targets[i]
		if b.Label != nil && t.label == b.Label.Name || b.Label == nil && (t.loop || b.Tok == token.BREAK) {
			return t
		}
	}
	return nil
}

func (w *goWalk[S]) pop() target[S] {
	t := w.targets[len(w.targets)-1]
	w.targets = w.targets[:len(w.targets)-1]
	return t
}

// clauses walks the arms of a switch or select from s and joins those that
// do not end. A switch without a default can match no case; a select always
// runs one of its arms, and an empty one never returns.
func (w *goWalk[S]) clauses(body *ast.BlockStmt, s S, isSelect bool, label string) (S, bool) {
	hasDefault := false
	for _, cl := range body.List {
		switch c := cl.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
		}
	}
	out, live := s, !hasDefault && !isSelect
	w.targets = append(w.targets, target[S]{label: label})
	for _, cl := range body.List {
		arm := w.d.fork(s)
		var list []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				arm = w.d.expr(e, arm)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				arm = w.d.comm(c.Comm, !hasDefault, arm)
			}
			list = c.Body
		}
		arm, armLive := w.stmts(list, arm)
		out, live = w.merge(out, live, arm, armLive)
	}
	for _, b := range w.pop().breaks {
		out, live = w.merge(out, live, b, true)
	}
	return out, live
}

// merge joins two paths' states; a path that has ended adds nothing.
func (w *goWalk[S]) merge(a S, aLive bool, b S, bLive bool) (S, bool) {
	switch {
	case !bLive:
		return a, aLive
	case !aLive:
		return b, true
	}
	return w.d.join(a, b), true
}

// isPanic reports whether e calls the builtin panic: both domains end a
// path there (a frame or lock left on a panicking path is not a finding).
func isPanic(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	obj := pass.Info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return obj == nil || isBuiltin
}
