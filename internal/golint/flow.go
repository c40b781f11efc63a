package golint

import (
	"go/ast"
	"go/types"
)

// The forward walk under framerelease and lockdiscipline's held-lock rule.
// It threads a domain's state through one Go function body in statement
// order, forking at every branch and joining the arms that do not end
// after it. The rules are the walk's, the same for both analyzers:
//
//   - a return, break, continue or goto ends its path; the domain says
//     which other statements (a panic) end one;
//   - an if, switch or select whose arms all end ends the path; a switch
//     without a default also has the path through no arm;
//   - init statements, switch tags and case values, a type switch's guard,
//     a for loop's condition and post statement and a range's operand are
//     walked, each in the order Go runs them;
//   - a loop body is walked once, and the domain combines the states from
//     before and after it.
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
	// loop combines the state before a loop with the state one walk of its
	// body leaves.
	loop(body *ast.BlockStmt, before, after S) S
	// comm applies a select clause's communication; blocking is true when
	// the select has no default.
	comm(n ast.Stmt, blocking bool, s S) S
}

// goWalk is one walk over Go statements for one domain.
type goWalk[S any] struct{ d goDomain[S] }

// stmts walks a statement list; live is false once every path through it
// has ended, and the state is then the one where the last path stopped.
func (w goWalk[S]) stmts(list []ast.Stmt, s S) (_ S, live bool) {
	for _, n := range list {
		if s, live = w.stmt(n, s); !live {
			return s, false
		}
	}
	return s, true
}

func (w goWalk[S]) stmt(n ast.Stmt, s S) (S, bool) {
	switch x := n.(type) {
	case nil:
		return s, true
	case *ast.BlockStmt:
		return w.stmts(x.List, s)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, s)
	case *ast.BranchStmt:
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
		body, _ := w.stmt(x.Body, w.d.fork(s))
		body, _ = w.stmt(x.Post, body)
		return w.d.loop(x.Body, s, body), true
	case *ast.RangeStmt:
		s = w.d.expr(x.X, s)
		body, _ := w.stmt(x.Body, w.d.fork(s))
		return w.d.loop(x.Body, s, body), true
	case *ast.SwitchStmt:
		s, _ = w.stmt(x.Init, s)
		return w.clauses(x.Body, w.d.expr(x.Tag, s), false)
	case *ast.TypeSwitchStmt:
		s, _ = w.stmt(x.Init, s)
		s, _ = w.stmt(x.Assign, s)
		return w.clauses(x.Body, s, false)
	case *ast.SelectStmt:
		return w.clauses(x.Body, s, true)
	}
	return w.d.stmt(n, s)
}

// clauses walks the arms of a switch or select from s and joins those that
// do not end. A switch without a default can match no case; a select always
// runs one of its arms, and an empty one never returns.
func (w goWalk[S]) clauses(body *ast.BlockStmt, s S, isSelect bool) (S, bool) {
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
	return out, live
}

// merge joins two paths' states; a path that has ended adds nothing.
func (w goWalk[S]) merge(a S, aLive bool, b S, bLive bool) (S, bool) {
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
