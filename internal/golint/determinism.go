package golint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the repo's seed-reproducibility contract (PR 2's
// chaos schedules, PR 4's recovery journals, the migration snapshots):
// inside a declared deterministic scope it forbids wall-clock reads
// (time.Now / time.Since / time.Until), the global math/rand generator
// (whose state is shared and unseeded), and `range` over a map, whose
// iteration order changes run to run.
//
// A scope is declared with the //vpvet:deterministic directive, either in
// a function's doc comment (the whole function is covered) or before the
// package clause (the whole file is covered). A real-time escape inside a
// scope carries a per-line //vpvet:allow determinism comment.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall clock, global rand, or map-order dependence in deterministic scopes",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	for _, file := range pass.Files {
		fileWide := fileDeterministic(pass, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fileWide || hasDirective(fn.Doc, deterministicD) {
				checkDeterministic(pass, fn)
			}
		}
	}
}

// fileDeterministic reports whether the directive appears before the
// package clause, marking the whole file.
func fileDeterministic(pass *Pass, file *ast.File) bool {
	for _, cg := range file.Comments {
		if cg.End() > file.Package {
			break
		}
		if hasDirective(cg, deterministicD) {
			return true
		}
	}
	return hasDirective(file.Doc, deterministicD)
}

func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

func checkDeterministic(pass *Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if pkg, fname, ok := pkgFuncCallee(pass, node); ok {
				switch {
				case pkg == "time" && (fname == "Now" || fname == "Since" || fname == "Until"):
					pass.Reportf(node.Pos(), "time.%s reads the wall clock inside deterministic scope %s (inject a seeded clock, or //vpvet:allow determinism for a real-time escape)",
						fname, name)
				case (pkg == "math/rand" || pkg == "math/rand/v2") && !strings.HasPrefix(fname, "New"):
					// rand.New / rand.NewSource construct seeded generators
					// and are exactly what deterministic code should use.
					pass.Reportf(node.Pos(), "global %s.%s uses shared unseeded state inside deterministic scope %s (use rand.New(rand.NewSource(seed)))",
						pkg, fname, name)
				}
			}
		case *ast.RangeStmt:
			tv, ok := pass.Info.Types[node.X]
			if ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(node.Pos(), "map iteration order is nondeterministic inside deterministic scope %s (collect and sort the keys, or //vpvet:allow determinism when order cannot reach the output)",
						name)
				}
			}
		}
		return true
	})
}

// pkgFuncCallee resolves a call to a package-level function (not a
// method), returning the package path and function name.
func pkgFuncCallee(pass *Pass, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}
