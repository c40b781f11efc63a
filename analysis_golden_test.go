package videopipe_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"videopipe"
	"videopipe/internal/script"
)

// Golden corpus: every PipeScript module we ship — embedded in the example
// programs, included by the on-disk example configs, or generated by the
// built-in apps (covered in internal/core) — must pass the analyzer with
// zero error-severity diagnostics, and every diagnostic it does report,
// warnings included, and every replication verdict must match
// testdata/pipevet.golden. This keeps pipevet from drifting out of sync with
// the code it gates.

// collectExampleScripts extracts PipeScript sources embedded as Go string
// literals in the example programs: any constant that defines an
// event_received handler and is not a Listing-1 config text.
func collectExampleScripts(t *testing.T) map[string]string {
	t.Helper()
	patterns := []string{"examples/*/main.go", "cmd/videopipe/main.go", "internal/experiments/*.go"}
	scripts := make(map[string]string)
	for _, pattern := range patterns {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					return true
				}
				src, err := strconv.Unquote(lit.Value)
				if err != nil || !strings.Contains(src, "event_received") {
					return true
				}
				// Listing-1 config texts embed module sources; the config
				// parser, not the script parser, consumes those.
				if strings.Contains(src, "modules :") || strings.Contains(src, "modules:") {
					return true
				}
				pos := fset.Position(lit.Pos())
				scripts[path+":"+strconv.Itoa(pos.Line)] = src
				return true
			})
		}
	}
	if len(scripts) == 0 {
		t.Fatal("no example PipeScript sources found — extraction broken?")
	}
	return scripts
}

func TestExampleScriptsAnalyzeClean(t *testing.T) {
	scripts := collectExampleScripts(t)
	wheres := make([]string, 0, len(scripts))
	for where := range scripts {
		wheres = append(wheres, where)
	}
	sort.Strings(wheres)
	var got strings.Builder
	for _, where := range wheres {
		src := scripts[where]
		fmt.Fprintf(&got, "script %s\n", where)
		rep := script.Analyze(src, script.Options{})
		for _, d := range rep.Diagnostics {
			if d.Severity == script.SeverityError {
				t.Errorf("%s: %s", where, d)
			}
			fmt.Fprintln(&got, d)
		}
		fmt.Fprintf(&got, "replication: %s\n", rep.Facts.Verdict())
	}
	checkPipevetGolden(t, "example scripts", got.String())
}

// TestExampleConfigsAnalyzeClean lints every on-disk Listing-1 config under
// examples/configs — the same files `make lint` checks.
func TestExampleConfigsAnalyzeClean(t *testing.T) {
	matches, err := filepath.Glob("examples/configs/*.cfg")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no example configs found under examples/configs")
	}
	var got strings.Builder
	for _, path := range matches {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		cfg, err := videopipe.ParseConfig(name, string(text), videopipe.FileResolver(filepath.Dir(path)))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		fmt.Fprintf(&got, "config %s\n", path)
		for _, d := range videopipe.AnalyzePipeline(cfg) {
			if d.Severity == videopipe.SeverityError {
				t.Errorf("%s: %s", path, d)
			}
			fmt.Fprintln(&got, d)
		}
		for _, m := range cfg.Modules {
			fmt.Fprintf(&got, "module %s: %s\n", m.Name, script.Analyze(m.Source, script.Options{}).Facts.Verdict())
		}
	}
	checkPipevetGolden(t, "example configs", got.String())
}

// checkPipevetGolden compares got, every diagnostic (warnings included) and
// replication verdict of one corpus, with the block of
// testdata/pipevet.golden headed "== block". internal/core's
// TestBuiltinAppsAnalyzeClean reads the same file for the built-in apps.
func checkPipevetGolden(t *testing.T, block, got string) {
	t.Helper()
	data, err := os.ReadFile("testdata/pipevet.golden")
	if err != nil {
		t.Fatal(err)
	}
	want, ok := goldenBlock(string(data), block)
	if !ok {
		t.Fatalf("testdata/pipevet.golden has no %q block; got:\n%s", block, got)
	}
	if got != want {
		t.Errorf("pipevet output for %s differs from testdata/pipevet.golden; got:\n%s", block, got)
	}
}

// goldenBlock returns the lines after the header "== name" up to the next
// header.
func goldenBlock(data, name string) (string, bool) {
	_, rest, ok := strings.Cut(data, "== "+name+"\n")
	if !ok {
		return "", false
	}
	if i := strings.Index(rest, "\n== "); i >= 0 {
		rest = rest[:i+1]
	}
	return rest, true
}

// TestBuildRejectsAnalysisErrors proves the builder-side gate: a fluent
// pipeline whose module references an undefined variable fails Build with a
// positioned diagnostic.
func TestBuildRejectsAnalysisErrors(t *testing.T) {
	_, err := videopipe.NewPipelineBuilder("broken").
		Module("m", "function event_received(msg) { frame_done(); log(ghost); }").
		Source("phone", "m").
		Build()
	if err == nil {
		t.Fatal("Build accepted a module referencing an undefined variable")
	}
	if !strings.Contains(err.Error(), "PV001") || !strings.Contains(err.Error(), "1:50") {
		t.Errorf("error lacks positioned PV001 diagnostic: %v", err)
	}
}
