package script

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"sort"
	"strings"
	"testing"
)

// TestInspectCoversEveryNodeType parses ast.go and checks that inspect's
// type switch names every type carrying an exprNode or stmtNode method.
// inspect is the one place that enumerates a node's children, so a type it
// omits is a subtree every static query silently skips.
func TestInspectCoversEveryNodeType(t *testing.T) {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "ast.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	starName := func(e ast.Expr) string {
		if star, ok := e.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok {
				return id.Name
			}
		}
		return ""
	}

	nodeTypes := map[string]bool{}
	handled := map[string]bool{}
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fn.Recv != nil && (fn.Name.Name == "exprNode" || fn.Name.Name == "stmtNode") {
			nodeTypes[starName(fn.Recv.List[0].Type)] = true
		}
		if fn.Recv == nil && fn.Name.Name == "inspect" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						handled[starName(e)] = true
					}
				}
				return true
			})
		}
	}
	if len(nodeTypes) < 30 || len(handled) == 0 {
		t.Fatalf("found %d node types and %d inspect cases; ast.go is not laid out as this test expects", len(nodeTypes), len(handled))
	}

	var missing []string
	for name := range nodeTypes {
		if !handled[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("inspect has no case for %s.\nGive each a case in inspect (ast.go), then in the evaluators that "+
			"switch on node kinds themselves: exec/eval (interp.go), resolver.stmt/expr (resolve.go), "+
			"flowWalk.stmt/expr (flow.go, the walk under pipecost and PV011), "+
			"shapeCtx.evalDepth and consumeWalker.expr (shapepass.go).",
			strings.Join(missing, ", "))
	}
}
