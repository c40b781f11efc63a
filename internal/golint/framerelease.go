package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// FrameRelease is the pooled-frame ownership analyzer. A value obtained
// from one of the owning constructors (frame.NewPooled, MustNewPooled,
// FromImage, Clone, or a codec Decode) must, on every intra-procedural
// path, be Released, transferred (passed to another function, stored,
// sent, captured, or returned), or provably nil. It also flags any use of
// a frame after its Release and releases that can run twice — the exact
// bug classes the pool's CAS panic and Pix poisoning catch only at
// runtime (DESIGN.md §7).
//
// The analysis is deliberately optimistic at merge points: a frame
// released or transferred on either side of a branch is treated as
// handled, so findings are near-certain bugs rather than maybes.
var FrameRelease = &Analyzer{
	Name: "framerelease",
	Doc:  "pooled frames must be Released, transferred or returned on every path",
	Run:  runFrameRelease,
}

// framePkgSuffix identifies the frame package by import-path suffix, so
// the analyzer also works on corpus fixtures living under other module
// paths.
const framePkgSuffix = "internal/frame"

// frameSourceNames are the callables whose *frame.Frame result carries
// pool ownership.
var frameSourceNames = map[string]bool{
	"NewPooled":     true,
	"MustNewPooled": true,
	"FromImage":     true,
	"Clone":         true,
	"Decode":        true,
}

// ownState tracks one frame variable along the current path.
type ownState int

const (
	stOwned        ownState = iota + 1 // holds the last reference, not yet released
	stReleased                         // Release already ran on this path
	stExitReleased                     // a deferred Release will run at function exit
	stDead                             // transferred, overwritten or provably nil
)

// rank orders states for optimistic merging: the "more handled" state
// wins, so branch-dependent handling never produces a finding.
func (s ownState) rank() int {
	switch s {
	case stDead:
		return 4
	case stExitReleased:
		return 3
	case stReleased:
		return 2
	default:
		return 1
	}
}

// ownVar is the per-path fact record for one tracked frame variable.
type ownVar struct {
	name   string
	srcPos token.Pos    // where the owning constructor was called
	errObj types.Object // companion error result, for nil guards
	state  ownState
	relPos token.Pos // where Release ran (for use-after messages)
}

// frState maps tracked variables to their current fact, copied at branch
// points.
type frState map[types.Object]ownVar

// merge combines two branch outcomes optimistically (see ownState.rank).
func (st frState) merge(other frState) frState {
	out := make(frState, len(st))
	for k, v := range st {
		if o, ok := other[k]; ok && o.state.rank() > v.state.rank() {
			v = o
		}
		out[k] = v
	}
	for k, v := range other {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func runFrameRelease(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				a := &frAnalysis{pass: pass}
				if st, live := (&goWalk[frState]{d: a}).stmts(body.List, frState{}); live {
					a.checkLeaks(st, body.Rbrace, nil)
				}
			}
			return true // keep descending: nested FuncLits analyzed on their own
		})
	}
}

// frAnalysis is framerelease's domain of the statement walk (flow.go): a
// join is the optimistic merge, an if's nil guard kills the frame on the
// arm where it is nil, a panic ends the path, and each loop iteration must
// hand off the frames it creates.
type frAnalysis struct {
	pass *Pass
}

func (a *frAnalysis) posStr(pos token.Pos) string {
	p := a.pass.Fset.Position(pos)
	return p.String()
}

// checkLeaks reports every variable still owned at an exit point. skip
// holds objects transferred by the return statement itself.
func (a *frAnalysis) checkLeaks(st frState, at token.Pos, skip map[types.Object]bool) {
	for obj, v := range st {
		if v.state != stOwned || skip[obj] {
			continue
		}
		a.pass.Reportf(at, "pooled frame %q obtained at %s is not released on this path (Release it, transfer ownership, or return it)",
			v.name, a.posStr(v.srcPos))
	}
}

func (a *frAnalysis) fork(st frState) frState { return maps.Clone(st) }

func (a *frAnalysis) join(x, y frState) frState { return x.merge(y) }

func (a *frAnalysis) comm(n ast.Stmt, _ bool, st frState) frState {
	st, _ = a.stmt(n, st)
	return st
}

func (a *frAnalysis) stmt(n ast.Stmt, st frState) (frState, bool) {
	switch stmt := n.(type) {
	case *ast.AssignStmt:
		return a.assign(stmt, st), true

	case *ast.DeclStmt:
		if gd, ok := stmt.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					st = a.expr(val, st)
				}
				// var f = frame.MustNewPooled(...) tracks like :=
				if len(vs.Names) >= 1 && len(vs.Values) == 1 {
					if call, ok := vs.Values[0].(*ast.CallExpr); ok && a.isSource(call) {
						st = a.track(vs.Names, call, st)
					}
				}
			}
		}

	case *ast.ExprStmt:
		return a.expr(stmt.X, st), !isPanic(a.pass, stmt.X)

	case *ast.DeferStmt:
		return a.deferStmt(stmt, st), true

	case *ast.GoStmt:
		return a.expr(stmt.Call, st), true

	case *ast.SendStmt:
		st = a.expr(stmt.Chan, st)
		return a.expr(stmt.Value, st), true

	case *ast.IncDecStmt:
		return a.expr(stmt.X, st), true

	case *ast.ReturnStmt:
		skip := map[types.Object]bool{}
		for _, res := range stmt.Results {
			if id, ok := res.(*ast.Ident); ok {
				if obj := a.pass.Info.Uses[id]; obj != nil {
					if _, tracked := st[obj]; tracked {
						st = a.useVar(obj, id.Pos(), st)
						skip[obj] = true
						v := st[obj]
						v.state = stDead // ownership transfers to the caller
						st[obj] = v
						continue
					}
				}
			}
			st = a.expr(res, st)
		}
		a.checkLeaks(st, stmt.Pos(), skip)
		return st, false
	}
	return st, true
}

// loop flags frames created inside a loop body that an iteration ends
// without handing off, on any of its ends: each such iteration would strand
// one pooled buffer. The ends are checked one by one, before the
// optimistic merge could let one that releases cover one that does not.
func (a *frAnalysis) loop(body *ast.BlockStmt, before frState, ends []frState) frState {
	reported := map[types.Object]bool{}
	out := before
	for _, end := range ends {
		for obj, v := range end {
			if _, existed := before[obj]; existed || reported[obj] || v.state != stOwned {
				continue
			}
			reported[obj] = true
			a.pass.Reportf(body.Rbrace, "pooled frame %q obtained at %s inside this loop is not released by the end of the iteration",
				v.name, a.posStr(v.srcPos))
		}
		out = out.merge(end)
	}
	return out
}

// branch applies an if's nil guard: the frame is dead on the arm where it
// (or its companion error's frame) is nil.
func (a *frAnalysis) branch(cond ast.Expr, then, els frState) (frState, frState) {
	if obj, deadInThen, ok := a.nilGuard(cond, then); ok {
		target := els
		if deadInThen {
			target = then
		}
		v := target[obj]
		v.state = stDead
		target[obj] = v
	}
	return then, els
}

// nilGuard recognizes `err != nil`, `err == nil`, `f == nil` and
// `f != nil` conditions over a tracked frame (or its companion error).
// It reports which tracked object is provably nil — dead — in the then
// branch (deadInThen) or the else branch.
func (a *frAnalysis) nilGuard(cond ast.Expr, st frState) (obj types.Object, deadInThen bool, ok bool) {
	be, isBin := cond.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	id, other := identAndOther(be)
	if id == nil || !isNilIdent(other) {
		return nil, false, false
	}
	o := a.pass.Info.Uses[id]
	if o == nil {
		return nil, false, false
	}
	if _, tracked := st[o]; tracked {
		// f == nil: nil (dead) in then; f != nil: dead in else.
		return o, be.Op == token.EQL, true
	}
	for frameObj, v := range st {
		if v.errObj == o {
			// err != nil: the frame result is nil in then; err == nil: in else.
			return frameObj, be.Op == token.NEQ, true
		}
	}
	return nil, false, false
}

func identAndOther(be *ast.BinaryExpr) (*ast.Ident, ast.Expr) {
	if id, ok := be.X.(*ast.Ident); ok {
		return id, be.Y
	}
	if id, ok := be.Y.(*ast.Ident); ok {
		return id, be.X
	}
	return nil, nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// assign handles tracking registration, overwrites and RHS escapes.
func (a *frAnalysis) assign(stmt *ast.AssignStmt, st frState) frState {
	source := len(stmt.Rhs) == 1 && len(stmt.Lhs) >= 1
	var srcCall *ast.CallExpr
	if source {
		if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok && a.isSource(call) {
			srcCall = call
		}
	}

	for _, rhs := range stmt.Rhs {
		st = a.expr(rhs, st)
	}

	// LHS idents previously tracked are overwritten: a still-owned frame
	// would be orphaned by the new value.
	for _, lhs := range stmt.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			st = a.expr(lhs, st)
			continue
		}
		obj := a.identObj(id)
		if v, tracked := st[obj]; tracked && v.state == stOwned {
			a.pass.Reportf(id.Pos(), "pooled frame %q obtained at %s is overwritten while still owned (Release it first)",
				v.name, a.posStr(v.srcPos))
			v.state = stDead
			st[obj] = v
		}
	}

	if srcCall != nil {
		idents := make([]*ast.Ident, 0, len(stmt.Lhs))
		for _, lhs := range stmt.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				idents = append(idents, id)
			} else {
				idents = append(idents, nil)
			}
		}
		st = a.track(idents, srcCall, st)
	}
	return st
}

// track registers the first identifier bound to an owning
// constructor result, remembering a companion error variable when the
// call has the (frame, error) shape.
func (a *frAnalysis) track(idents []*ast.Ident, call *ast.CallExpr, st frState) frState {
	if len(idents) == 0 || idents[0] == nil || idents[0].Name == "_" {
		return st
	}
	obj := a.identObj(idents[0])
	if obj == nil || !isFramePtr(obj.Type()) {
		return st
	}
	v := ownVar{name: idents[0].Name, srcPos: call.Pos(), state: stOwned}
	if len(idents) >= 2 && idents[1] != nil && idents[1].Name != "_" {
		if eo := a.identObj(idents[1]); eo != nil && isErrorType(eo.Type()) {
			v.errObj = eo
		}
	}
	st = maps.Clone(st)
	st[obj] = v
	return st
}

func (a *frAnalysis) identObj(id *ast.Ident) types.Object {
	if o := a.pass.Info.Defs[id]; o != nil {
		return o
	}
	return a.pass.Info.Uses[id]
}

// deferStmt recognizes `defer f.Release()` and deferred closures that
// release a tracked frame; anything else is a normal escape scan.
func (a *frAnalysis) deferStmt(stmt *ast.DeferStmt, st frState) frState {
	if obj, ok := a.releaseReceiver(stmt.Call, st); ok {
		v := st[obj]
		if v.state == stReleased || v.state == stExitReleased {
			a.pass.Reportf(stmt.Call.Pos(), "frame %q is already released (at %s); this deferred Release would panic",
				v.name, a.posStr(v.relPos))
		}
		v.state = stExitReleased
		v.relPos = stmt.Call.Pos()
		st = maps.Clone(st)
		st[obj] = v
		return st
	}
	if fl, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
		// A deferred closure releasing an outer frame counts as a
		// release-at-exit for that frame.
		st = maps.Clone(st)
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, ok := a.releaseReceiver(call, st); ok {
				v := st[obj]
				if v.state == stOwned {
					v.state = stExitReleased
					v.relPos = call.Pos()
					st[obj] = v
				}
			}
			return true
		})
		return st
	}
	return a.expr(stmt.Call, st)
}

// releaseReceiver matches a call of the form `<tracked>.Release()`.
func (a *frAnalysis) releaseReceiver(call *ast.CallExpr, st frState) (types.Object, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := a.pass.Info.Uses[id]
	if obj == nil {
		return nil, false
	}
	_, tracked := st[obj]
	return obj, tracked
}

// useVar checks a read of a tracked variable against its state.
func (a *frAnalysis) useVar(obj types.Object, at token.Pos, st frState) frState {
	v, ok := st[obj]
	if !ok {
		return st
	}
	if v.state == stReleased {
		a.pass.Reportf(at, "use of frame %q after Release (released at %s)", v.name, a.posStr(v.relPos))
	}
	return st
}

// expr walks an expression, applying use checks and escape semantics
// to every tracked-variable occurrence.
func (a *frAnalysis) expr(e ast.Expr, st frState) frState {
	switch ex := e.(type) {
	case nil:
		return st
	case *ast.Ident:
		return a.bareIdent(ex, st)
	case *ast.SelectorExpr:
		if id, ok := ex.X.(*ast.Ident); ok {
			if obj := a.pass.Info.Uses[id]; obj != nil {
				if _, tracked := st[obj]; tracked {
					// Field access reads the frame without moving ownership.
					return a.useVar(obj, id.Pos(), st)
				}
			}
		}
		return a.expr(ex.X, st)
	case *ast.CallExpr:
		return a.callExpr(ex, st)
	case *ast.BinaryExpr:
		// Comparisons against nil are pure reads, not escapes.
		if (ex.Op == token.EQL || ex.Op == token.NEQ) && (isNilIdent(ex.X) || isNilIdent(ex.Y)) {
			if id, other := identAndOther(ex); id != nil && isNilIdent(other) {
				if obj := a.pass.Info.Uses[id]; obj != nil {
					if _, tracked := st[obj]; tracked {
						return a.useVar(obj, id.Pos(), st)
					}
				}
			}
		}
		st = a.expr(ex.X, st)
		return a.expr(ex.Y, st)
	case *ast.ParenExpr:
		return a.expr(ex.X, st)
	case *ast.StarExpr:
		return a.expr(ex.X, st)
	case *ast.UnaryExpr:
		return a.expr(ex.X, st)
	case *ast.IndexExpr:
		st = a.expr(ex.X, st)
		return a.expr(ex.Index, st)
	case *ast.SliceExpr:
		st = a.expr(ex.X, st)
		st = a.expr(ex.Low, st)
		st = a.expr(ex.High, st)
		return a.expr(ex.Max, st)
	case *ast.TypeAssertExpr:
		return a.expr(ex.X, st)
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			st = a.expr(el, st)
		}
		return st
	case *ast.KeyValueExpr:
		st = a.expr(ex.Key, st)
		return a.expr(ex.Value, st)
	case *ast.FuncLit:
		// Capturing a tracked frame hands it to the closure: escape. The
		// closure body is analyzed as its own function by runFrameRelease.
		st = maps.Clone(st)
		ast.Inspect(ex.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := a.pass.Info.Uses[id]; obj != nil {
				if v, tracked := st[obj]; tracked && v.state != stDead {
					v.state = stDead
					st[obj] = v
				}
			}
			return true
		})
		return st
	}
	return st
}

// bareIdent handles a tracked variable appearing as a plain value: the
// reference escapes our view (stored, passed, aliased), so ownership
// transfers.
func (a *frAnalysis) bareIdent(id *ast.Ident, st frState) frState {
	obj := a.pass.Info.Uses[id]
	if obj == nil {
		return st
	}
	v, tracked := st[obj]
	if !tracked {
		return st
	}
	st = a.useVar(obj, id.Pos(), st)
	if v.state == stOwned {
		v.state = stDead
		st = maps.Clone(st)
		st[obj] = v
	}
	return st
}

// callExpr handles method calls on tracked frames (Release, reads) and
// argument escapes.
func (a *frAnalysis) callExpr(call *ast.CallExpr, st frState) frState {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := a.pass.Info.Uses[id]; obj != nil {
				if v, tracked := st[obj]; tracked {
					switch sel.Sel.Name {
					case "Release":
						if v.state == stReleased || v.state == stExitReleased {
							a.pass.Reportf(call.Pos(), "double Release of frame %q (first released at %s)",
								v.name, a.posStr(v.relPos))
						}
						v.state = stReleased
						v.relPos = call.Pos()
						st = maps.Clone(st)
						st[obj] = v
					case "Released":
						// Explicitly legal after Release.
					default:
						st = a.useVar(obj, id.Pos(), st)
					}
					for _, arg := range call.Args {
						st = a.expr(arg, st)
					}
					return st
				}
			}
		}
		st = a.expr(sel.X, st)
	} else if _, isIdent := call.Fun.(*ast.Ident); !isIdent {
		st = a.expr(call.Fun, st)
	}
	for _, arg := range call.Args {
		st = a.expr(arg, st)
	}
	return st
}

// isSource reports whether the call produces an owned pooled frame: a
// callee named like an owning constructor whose (first) result is
// *frame.Frame.
func (a *frAnalysis) isSource(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	if !frameSourceNames[name] {
		return false
	}
	tv, ok := a.pass.Info.Types[ast.Expr(call)]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() >= 1 && isFramePtr(t.At(0).Type())
	default:
		return isFramePtr(t)
	}
}

// isFramePtr reports whether t is *frame.Frame (matched by package-path
// suffix).
func isFramePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Frame" || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), framePkgSuffix)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
