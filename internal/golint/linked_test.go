package golint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkAllowed names the functions no binary links that stay anyway, one
// reason each. A key is "<dir>.<Recv>.<Name>" (or "<dir>.<Name>" for a
// plain function), <dir> relative to the module root and empty for the
// root package; a <Recv> of "*" matches every receiver in that directory.
// An entry that names no unlinked function fails the test too.
var linkAllowed = map[string]string{
	"internal/script.*.exprNode": "interface marker: the method set alone closes the expr sum type",
	"internal/script.*.stmtNode": "interface marker: the method set alone closes the stmt sum type",

	"internal/netsim.conn.LocalAddr":              "net.Conn method: a simulated connection is a net.Conn",
	"internal/netsim.conn.RemoteAddr":             "net.Conn method: a simulated connection is a net.Conn",
	"internal/netsim.conn.SetDeadline":            "net.Conn method: a simulated connection is a net.Conn",
	"internal/netsim.conn.SetReadDeadline":        "net.Conn method: a simulated connection is a net.Conn",
	"internal/netsim.conn.SetWriteDeadline":       "net.Conn method: a simulated connection is a net.Conn",
	"internal/netsim.shapedPipe.setReadDeadline":  "helper of the net.Conn deadline methods",
	"internal/netsim.shapedPipe.setWriteDeadline": "helper of the net.Conn deadline methods",
	"internal/netsim.Addr.Network":                "net.Addr method: a simulated address is a net.Addr",
	"internal/netsim.errTimeout.Timeout":          "net.Error method: a deadline error is a net.Error",
	"internal/netsim.errTimeout.Temporary":        "net.Error method: a deadline error is a net.Error",

	"internal/script.Shape.Contains":        "shape-soundness oracle (inferred ⊇ observed), read by script and root tests",
	"internal/script.containsDepth":         "shape-soundness oracle: Contains's walk",
	"internal/script.ShapeOf":               "shape-soundness oracle: the shape of a runtime payload, read by script and root tests",
	"internal/script.shapeOfValue":          "shape-soundness oracle: ShapeOf's walk",
	"internal/frame.BufferPool.Outstanding": "the frame-pool conservation law every BufferPool test reads",
	"internal/frame.BufferPool.Retained":    "the frame-pool retention cap, read by frame, wire and core tests",
	"internal/frame.Frame.Released":         "read by bench tests, whose directory is frozen",
	"internal/frame.MustNewPooled":          "the pooled test frame of frame, device and core tests",
	"internal/device.Device.Store":          "read by core tests: every store entry back after a run",
	"internal/device.Device.Crashed":        "read by chaos tests: a device_crash fault applied",
	"internal/netsim.Network.Partitioned":   "read by chaos tests: a partition applied and healed",
	"internal/netsim.Network.Shaped":        "read by chaos tests: a latency spike applied and cleared",
}

// TestEveryFunctionLinked builds every binary the module ships and fails
// on each non-test function that none of them links, outside bench/
// (frozen: its numbers are the benchmark's) and linkAllowed.
func TestEveryFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, fn := range unlinkedFuncs(t, loader.ModuleDir, "bench") {
		switch {
		case linkAllowed[fn.key] != "":
			used[fn.key] = true
		case fn.anyRecv != "" && linkAllowed[fn.anyRecv] != "":
			used[fn.anyRecv] = true
		default:
			t.Errorf("%s: %s is linked into no binary (delete it, or add it to linkAllowed with a reason)", fn.pos, fn.key)
		}
	}
	for key := range linkAllowed {
		if !used[key] {
			t.Errorf("linkAllowed[%q] names no unlinked function: delete the entry", key)
		}
	}
}

// TestEveryFunctionLinkedFixture pins the matching rules on a module of
// its own: of an unused function, a generic type's called method, a value
// method called only through a pointer in an interface, and an init, only
// the first is unlinked.
func TestEveryFunctionLinkedFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture module; skipped in -short")
	}
	dir, err := filepath.Abs("testdata/linked")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fn := range unlinkedFuncs(t, dir, "") {
		got = append(got, fn.key)
	}
	if want := "[lib.Unused]"; fmt.Sprint(got) != want {
		t.Errorf("unlinked in the fixture: got %v, want %s", got, want)
	}
}

// linkFunc is one declared function: its key as linkAllowed spells it,
// that key with a "*" receiver, and where it is declared.
type linkFunc struct{ key, anyRecv, pos string }

// unlinkedFuncs builds every main package of the module at modDir with
// inlining off (an inlined function leaves no symbol of its own), reads
// each binary's symbols with `go tool nm`, and returns the functions
// declared in the module's non-test files, outside skipDir, that no
// binary holds.
func unlinkedFuncs(t *testing.T, modDir, skipDir string) []linkFunc {
	t.Helper()
	out, err := goCmd(modDir, "list", "-json=ImportPath,Name,Dir,GoFiles", "./...")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct {
		ImportPath, Name, Dir string
		GoFiles               []string
	}
	var pkgs []listed
	var mains []string
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	bin := t.TempDir()
	args := append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)
	if _, err := goCmd(modDir, args...); err != nil {
		t.Fatal(err)
	}

	// Symbols by binary: a main package's functions are all "main.",
	// so each is looked up in its own binary; a library's in any.
	symbols := map[string]map[string]bool{}
	all := map[string]bool{}
	for _, m := range mains {
		nm, err := goCmd(modDir, "tool", "nm", filepath.Join(bin, filepath.Base(m)))
		if err != nil {
			t.Fatal(err)
		}
		syms := map[string]bool{}
		for sc := bufio.NewScanner(bytes.NewReader(nm)); sc.Scan(); {
			if f := nmLine.FindStringSubmatch(sc.Text()); f != nil {
				s := stripInstances(f[1])
				syms[s] = true
				all[s] = true
			}
		}
		symbols[m] = syms
	}

	var unlinked []linkFunc
	fset := token.NewFileSet()
	for _, p := range pkgs {
		rel, err := filepath.Rel(modDir, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		key := rel + "."
		if rel == "." {
			key = ""
		}
		if skipDir != "" && (rel == skipDir || strings.HasPrefix(rel, skipDir+"/")) {
			continue
		}
		held, prefix := all, p.ImportPath+"."
		if p.Name == "main" {
			held, prefix = symbols[p.ImportPath], "main."
		}
		for _, name := range p.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				pos := fmt.Sprintf("%s:%d", path.Join(rel, name), fset.Position(fd.Pos()).Line)
				recv := recvName(fd)
				if recv == "" {
					if !held[prefix+fd.Name.Name] {
						unlinked = append(unlinked, linkFunc{key + fd.Name.Name, "", pos})
					}
					continue
				}
				// A pointer method's symbol is (*T).M, a value
				// method's T.M, and a value method also has the
				// (*T).M wrapper a call through an interface reaches.
				if !held[prefix+"(*"+recv+")."+fd.Name.Name] && !held[prefix+recv+"."+fd.Name.Name] {
					unlinked = append(unlinked, linkFunc{key + recv + "." + fd.Name.Name, key + "*." + fd.Name.Name, pos})
				}
			}
		}
	}
	return unlinked
}

// nmLine captures the symbol of one `go tool nm` line: an address (absent
// for an undefined symbol), a one-letter kind, then the name, which may
// itself hold spaces (a generic shape such as go.shape.struct { … }).
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+[A-Za-z]\s+(.+)$`)

// stripInstances drops every bracketed instantiation from a symbol, so
// golint.(*goWalk[go.shape.…]).stmt reads golint.(*goWalk).stmt; cutting
// at the first '[' would lose the method name after it.
func stripInstances(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// recvName is the bare type name of fd's receiver ("" for a function):
// no pointer and no type parameters.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// goCmd runs the go command in dir and returns its standard output; a
// failure carries the command's standard error.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
