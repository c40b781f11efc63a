package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// LockDiscipline enforces two locking rules the runtime depends on:
//
//  1. No sync.Mutex / RWMutex / WaitGroup / Once / Cond is copied by
//     value — value receivers, value parameters and results, plain
//     assignments from existing values, and range copies are all flagged
//     (a copied lock guards nothing).
//  2. No channel send and no blocking RPC (wire / services Call, Send)
//     runs while a mutex locked in the same function is still held: the
//     receiver may itself need that lock to drain, which is how the data
//     plane deadlocks under backpressure. Sends inside a select with a
//     default branch are non-blocking and exempt.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no locks copied by value; no blocking send while a mutex is held",
	Run:  runLockDiscipline,
}

// lockTypeNames are the sync types whose copy is always a bug.
var lockTypeNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true,
}

// blockingRPCPkgs are package-path suffixes whose Call/Send methods block
// on the network (or a remote peer) and must not run under a mutex.
var blockingRPCPkgs = []string{"internal/wire", "internal/services"}

var blockingRPCMethods = map[string]bool{"Call": true, "Send": true}

func runLockDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncDecl:
				checkFuncSig(pass, node)
				if node.Body != nil {
					(&goWalk[heldSet]{d: &heldAnalysis{pass}}).stmts(node.Body.List, heldSet{})
				}
			case *ast.FuncLit:
				(&goWalk[heldSet]{d: &heldAnalysis{pass}}).stmts(node.Body.List, heldSet{})
			case *ast.AssignStmt:
				checkCopyAssign(pass, node)
			case *ast.RangeStmt:
				checkCopyRange(pass, node)
			case *ast.CallExpr:
				checkCopyArgs(pass, node)
			}
			return true
		})
	}
}

// ---- rule 1: locks copied by value ----

// containsLock reports whether t (followed through structs and arrays,
// but not pointers, slices or maps) embeds one of the sync lock types.
func containsLock(t types.Type) bool {
	return containsLockDepth(t, 0)
}

func containsLockDepth(t types.Type, depth int) bool {
	if depth > 10 {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypeNames[obj.Name()] {
			return true
		}
		return containsLockDepth(named.Underlying(), depth+1)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsLockDepth(u.Elem(), depth+1)
	}
	return false
}

// checkFuncSig flags value receivers, parameters and results whose type
// carries a lock.
func checkFuncSig(pass *Pass, fn *ast.FuncDecl) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.Info.Types[field.Type]
			if !ok {
				continue
			}
			if _, isPtr := tv.Type.(*types.Pointer); isPtr {
				continue
			}
			if containsLock(tv.Type) {
				pass.Reportf(field.Type.Pos(), "%s of %s copies a lock: %s contains a sync type (pass a pointer)",
					what, fn.Name.Name, tv.Type.String())
			}
		}
	}
	check(fn.Recv, "value receiver")
	check(fn.Type.Params, "parameter")
	check(fn.Type.Results, "result")
}

// freshValue reports whether the expression constructs a new value (no
// existing lock state can be copied out of it).
func freshValue(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit:
		return true
	case *ast.CallExpr:
		return true // the callee's problem if it returns a lock by value
	case *ast.UnaryExpr:
		return v.Op == token.AND
	}
	return false
}

func checkCopyAssign(pass *Pass, stmt *ast.AssignStmt) {
	for i, rhs := range stmt.Rhs {
		if len(stmt.Rhs) != len(stmt.Lhs) {
			break
		}
		if freshValue(rhs) {
			continue
		}
		// Assigning to the blank identifier evaluates, not copies.
		if id, ok := stmt.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		tv, ok := pass.Info.Types[rhs]
		if !ok || tv.Type == nil {
			continue
		}
		if containsLock(tv.Type) {
			pass.Reportf(stmt.Lhs[i].Pos(), "assignment copies a lock: %s contains a sync type (use a pointer)", tv.Type.String())
		}
	}
}

func checkCopyRange(pass *Pass, stmt *ast.RangeStmt) {
	if stmt.Value == nil {
		return
	}
	tv, ok := pass.Info.Types[stmt.Value]
	if !ok || tv.Type == nil {
		return
	}
	if _, isPtr := tv.Type.(*types.Pointer); isPtr {
		return
	}
	if containsLock(tv.Type) {
		pass.Reportf(stmt.Value.Pos(), "range copies a lock per iteration: %s contains a sync type (range over indices or pointers)", tv.Type.String())
	}
}

func checkCopyArgs(pass *Pass, call *ast.CallExpr) {
	for _, arg := range call.Args {
		if freshValue(arg) {
			continue
		}
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Type == nil {
			continue
		}
		if tv.IsType() {
			continue // conversions like sync.Mutex(x) are not calls
		}
		if containsLock(tv.Type) {
			pass.Reportf(arg.Pos(), "argument copies a lock: %s contains a sync type (pass a pointer)", tv.Type.String())
		}
	}
}

// ---- rule 2: blocking operations while a mutex is held ----

// heldSet maps the canonical receiver expression ("m.mu") of each mutex
// held on the current path to where it was locked.
type heldSet map[string]token.Pos

// heldAnalysis is the held-lock rule's domain of the statement walk
// (flow.go): a join keeps the locks held on both arms, a loop leaves the
// locks held before it, a panic ends the path, and a send in a select
// without default blocks like a bare send.
type heldAnalysis struct {
	pass *Pass
}

func (h *heldAnalysis) fork(held heldSet) heldSet { return held }

// join keeps the locks held on both arms — the conservative
// (finding-averse) merge.
func (h *heldAnalysis) join(a, b heldSet) heldSet {
	out := make(heldSet, len(a))
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func (h *heldAnalysis) branch(_ ast.Expr, then, els heldSet) (heldSet, heldSet) { return then, els }

func (h *heldAnalysis) loop(_ *ast.BlockStmt, before heldSet, _ []heldSet) heldSet { return before }

func (h *heldAnalysis) expr(e ast.Expr, held heldSet) heldSet {
	h.scanCalls(e, held)
	return held
}

func (h *heldAnalysis) comm(n ast.Stmt, blocking bool, held heldSet) heldSet {
	if send, isSend := n.(*ast.SendStmt); isSend && blocking {
		h.checkBlocked(send.Arrow, "channel send (in select without default)", held)
	}
	return held
}

func (h *heldAnalysis) stmt(n ast.Stmt, held heldSet) (heldSet, bool) {
	switch stmt := n.(type) {
	case *ast.ExprStmt:
		return h.exprStmt(stmt.X, held), !isPanic(h.pass, stmt.X)
	case *ast.SendStmt:
		h.checkBlocked(stmt.Arrow, "channel send", held)
	case *ast.DeferStmt, *ast.GoStmt:
		// runs at exit (a deferred Unlock keeps the lock held until then),
		// or on its own goroutine with its own lock context
	default:
		h.scanCalls(n, held)
	}
	return held, true
}

// exprStmt handles Lock/Unlock transitions and blocking calls at
// statement level.
func (h *heldAnalysis) exprStmt(e ast.Expr, held heldSet) heldSet {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		h.scanCalls(e, held)
		return held
	}
	if key, kind, ok := h.lockCall(call); ok {
		held = maps.Clone(held)
		switch kind {
		case "Lock", "RLock":
			held[key] = call.Pos()
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return held
	}
	h.scanCalls(call, held)
	return held
}

// scanCalls looks inside an expression for blocking RPC calls while locks
// are held. Nested FuncLits run later, in their own context.
func (h *heldAnalysis) scanCalls(e ast.Node, held heldSet) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if h.isBlockingRPC(call) {
			h.checkBlocked(call.Pos(), "blocking "+callName(call)+" call", held)
		}
		return true
	})
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "RPC"
}

// checkBlocked reports every currently-held mutex at a blocking point.
func (h *heldAnalysis) checkBlocked(pos token.Pos, what string, held heldSet) {
	for key, at := range held {
		h.pass.Reportf(pos, "%s while %s is held (locked at %s): the peer may need the lock to make progress",
			what, key, h.pass.Fset.Position(at))
	}
}

// lockCall matches `<expr>.Lock/RLock/Unlock/RUnlock()` where the
// receiver's type comes from package sync, returning the canonical
// receiver key.
func (h *heldAnalysis) lockCall(call *ast.CallExpr) (key, kind string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fnObj, isFn := h.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fnObj.Pkg() == nil || fnObj.Pkg().Path() != "sync" {
		return "", "", false
	}
	return exprKey(sel.X), name, true
}

// isBlockingRPC matches Call/Send methods on wire or services types.
func (h *heldAnalysis) isBlockingRPC(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !blockingRPCMethods[sel.Sel.Name] {
		return false
	}
	fnObj, ok := h.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fnObj.Pkg() == nil {
		return false
	}
	for _, suffix := range blockingRPCPkgs {
		if strings.HasSuffix(fnObj.Pkg().Path(), suffix) {
			return true
		}
	}
	return false
}

// exprKey renders a receiver expression canonically ("m.mu", "mu").
func exprKey(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprKey(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprKey(v.X)
	case *ast.StarExpr:
		return exprKey(v.X)
	case *ast.IndexExpr:
		return exprKey(v.X) + "[...]"
	case *ast.CallExpr:
		return exprKey(v.Fun) + "()"
	}
	return "<lock>"
}
