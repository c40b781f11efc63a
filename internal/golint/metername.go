package golint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// MeterName returns the meter-name contract analyzer, checking every name
// passed to a metrics sink against the generated registry (the patterns
// in internal/metrics/names.go, where '*' stands for one dynamic
// segment). Tests, vpbench and the monitor all address instruments by
// these stringly-typed names, so a typo silently records into a fresh,
// never-read meter; the analyzer catches unknown names at build time and
// suggests near misses by edit distance. Names computed entirely at
// runtime must carry //vpvet:allow metername with a reason.
//
// Sinks: metrics.Registry.Meter / .Histogram, and benchio.Entry.Set /
// .SetDurationMS (the BENCH_results.json keys vpbench and vpflood write,
// held to the same registry so benchmark output never contains an
// unregistered name).
func MeterName(registry []string) *Analyzer {
	return &Analyzer{
		Name: "metername",
		Doc:  "meter and histogram names must match the generated registry",
		Run: func(pass *Pass) {
			runMeterName(pass, registry)
		},
	}
}

// meterSinks maps receiver type name -> method names whose first string
// argument is a metric name. Receiver types are matched by name plus a
// package-path suffix (meterSinkPkgs), so an unrelated type that happens
// to be called Entry is never mistaken for a sink.
var meterSinks = map[string]map[string]bool{
	"Registry": {"Meter": true, "Histogram": true},
	"Entry":    {"Set": true, "SetDurationMS": true},
}

// meterSinkPkgs pins each sink receiver type to its defining package.
var meterSinkPkgs = map[string]string{
	"Registry": "internal/metrics",
	"Entry":    "internal/benchio",
}

func runMeterName(pass *Pass, registry []string) {
	forEachMeterName(pass, func(call *ast.CallExpr, pattern string) {
		checkMeterName(pass, call, pattern, registry)
	})
}

// CollectMeterNames scans the packages for every statically-visible
// metric name pattern — the input to `vpvet -write-meters`, which
// regenerates internal/metrics/names.go from it.
func CollectMeterNames(pkgs []*Package) []string {
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		pass := &Pass{Package: pkg}
		forEachMeterName(pass, func(_ *ast.CallExpr, pattern string) {
			if pattern != "*" {
				seen[pattern] = true
			}
		})
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// forEachMeterName invokes fn with the extracted name pattern of every
// metric-sink call in the package.
func forEachMeterName(pass *Pass, fn func(call *ast.CallExpr, pattern string)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isMeterSink(pass, sel) {
				return true
			}
			fn(call, namePattern(pass, call.Args[0]))
			return true
		})
	}
}

// isMeterSink reports whether the selector resolves to a known metric
// sink method.
func isMeterSink(pass *Pass, sel *ast.SelectorExpr) bool {
	fnObj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fnObj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	typeName := named.Obj().Name()
	methods, ok := meterSinks[typeName]
	if !ok || !methods[fnObj.Name()] {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && strings.HasSuffix(pkg.Path(), meterSinkPkgs[typeName])
}

// namePattern renders the name argument as a registry pattern: constant
// string parts stay literal, every dynamic part becomes one '*'. A result
// of "*" means nothing about the name is statically known.
func namePattern(pass *Pass, e ast.Expr) string {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	if be, ok := e.(*ast.BinaryExpr); ok {
		left := namePattern(pass, be.X)
		right := namePattern(pass, be.Y)
		joined := left + right
		for strings.Contains(joined, "**") {
			joined = strings.ReplaceAll(joined, "**", "*")
		}
		return joined
	}
	if pe, ok := e.(*ast.ParenExpr); ok {
		return namePattern(pass, pe.X)
	}
	return "*"
}

func checkMeterName(pass *Pass, call *ast.CallExpr, pattern string, registry []string) {
	if pattern == "*" {
		pass.Reportf(call.Args[0].Pos(), "metric name is computed entirely at runtime; add //vpvet:allow metername with a reason, or restructure so the literal parts reach the call site")
		return
	}
	if strings.Contains(pattern, "*") {
		// Partially dynamic: the extracted pattern must itself be a
		// registry entry.
		for _, p := range registry {
			if p == pattern {
				return
			}
		}
		report(pass, call, pattern, registry, "metric name pattern")
		return
	}
	// Fully literal: any registry pattern may match it.
	for _, p := range registry {
		if meterPatternMatch(p, pattern) {
			return
		}
	}
	report(pass, call, pattern, registry, "metric name")
}

func report(pass *Pass, call *ast.CallExpr, pattern string, registry []string, noun string) {
	if near, d := nearestPattern(pattern, registry); d > 0 && d <= 2 {
		pass.Reportf(call.Args[0].Pos(), "%s %q is not in the generated registry (internal/metrics/names.go); did you mean %q?", noun, pattern, near)
		return
	}
	pass.Reportf(call.Args[0].Pos(), "%s %q is not in the generated registry (internal/metrics/names.go); register it with `make meters` if intentional", noun, pattern)
}

// meterPatternMatch reports whether name matches pattern, where each '*'
// stands for one or more characters.
func meterPatternMatch(pattern, name string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	rest := name[len(parts[0]):]
	for i := 1; i < len(parts); i++ {
		p := parts[i]
		if i == len(parts)-1 {
			if p == "" {
				return len(rest) >= 1
			}
			return strings.HasSuffix(rest, p) && len(rest) >= len(p)+1
		}
		if len(rest) < 1 {
			return false
		}
		idx := strings.Index(rest[1:], p)
		if idx < 0 {
			return false
		}
		rest = rest[1+idx+len(p):]
	}
	return true
}

// nearestPattern finds the registry entry with the smallest edit distance
// to the candidate.
func nearestPattern(name string, registry []string) (string, int) {
	best, bestDist := "", 1<<30
	for _, p := range registry {
		if d := editDistance(name, p); d < bestDist {
			best, bestDist = p, d
		}
	}
	return best, bestDist
}

// editDistance is the Levenshtein distance between two strings.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
