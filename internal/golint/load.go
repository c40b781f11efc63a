package golint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit an Analyzer runs
// over. Files holds only the non-test sources (tests assert on findings,
// they are not subject to them).
type Package struct {
	// Path is the import path ("videopipe/internal/frame").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Fset positions every file in the loader's shared FileSet.
	Fset *token.FileSet
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// Loader discovers, parses and type-checks packages inside one module.
// Imports within the module are resolved recursively by the loader itself;
// everything else (the standard library) is delegated to the stdlib source
// importer, so the whole pipeline needs nothing beyond the standard
// library and a GOROOT.
type Loader struct {
	// ModulePath is the module's import-path prefix, read from go.mod.
	ModulePath string
	// ModuleDir is the module root directory.
	ModuleDir string

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*Package
	ctx   build.Context
}

// NewLoader returns a loader rooted at the module containing dir. It walks
// up from dir until it finds a go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("golint: no go.mod found above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("golint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	ctx := build.Default
	l := &Loader{
		ModulePath: modPath,
		ModuleDir:  root,
		fset:       fset,
		cache:      make(map[string]*Package),
		ctx:        ctx,
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Load resolves package patterns ("./...", "./internal/frame", ".") to
// directories under the module root and loads each, returning packages
// sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" {
				pat = "."
			}
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		base, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			dirs[base] = true
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			dirs[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	for dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			if _, nogo := err.(*build.NoGoError); nogo {
				continue
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads and type-checks the package in one directory. The import
// path is derived from the directory's position under the module root.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("golint: %s is outside module %s", abs, l.ModuleDir)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.loadPath(path, abs)
}

// loadPath loads the package with the given import path from dir, caching
// the result so shared dependencies type-check once.
func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("golint: import cycle through %s", path)
		}
		return p, nil
	}
	l.cache[path] = nil // cycle guard

	// go/build selects the files honoring build constraints.
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		delete(l.cache, path)
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			delete(l.cache, path)
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importerFunc(l.importDep)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		delete(l.cache, path)
		return nil, fmt.Errorf("golint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// importDep resolves one import during type checking: module-internal
// paths recurse through the loader, everything else goes to the stdlib
// source importer.
func (l *Loader) importDep(path, srcDir string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.loadPath(path, filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, 0)
}

// importerFunc adapts a function to types.ImporterFrom.
type importerFunc func(path, srcDir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}
