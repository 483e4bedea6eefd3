package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path as the loader sees it: the module
	// path plus the directory's module-relative path in module mode, or
	// the root-relative directory in fixture mode. Analyzers scope
	// themselves by matching suffixes of this path (e.g. internal/core),
	// which works identically for the real module and for fixtures.
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages from source. Module-internal
// imports resolve recursively through the loader itself; everything else
// (the standard library) goes through go/importer's source importer, so no
// export data, build cache or x/tools dependency is needed.
type Loader struct {
	// Fset is shared by every parsed file, ours and the standard
	// library's, so positions stay comparable.
	Fset *token.FileSet
	// Root is the directory tree the loader serves packages from: the
	// module root, or a testdata fixture root.
	Root string
	// ModulePath is the module's import path prefix ("arbor"). Empty in
	// fixture mode, where import paths are plain root-relative
	// directories.
	ModulePath string

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.ImporterFrom
}

// NewLoader creates a loader over the tree rooted at root. modulePath is
// the module's import-path prefix, or "" for testdata fixture trees whose
// import paths are root-relative directories.
func NewLoader(root, modulePath string) *Loader {
	// The source importer honors go/build's context. Cgo-tainted variants
	// of stdlib packages (net, os/user) would need a C toolchain to
	// type-check; the pure-Go variants are equivalent for analysis.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		Root:       root,
		ModulePath: modulePath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// LoadAll walks the root tree and loads every directory containing
// non-test Go files, skipping testdata, vendor and hidden directories.
// Packages are returned sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs := make(map[string]bool)
	err := filepath.WalkDir(l.Root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dirs[filepath.Dir(p)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var paths []string
	for dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		if ip, ok := l.importPath(rel); ok {
			paths = append(paths, ip)
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// importPath maps a root-relative directory to its import path. The
// fixture root itself has no import path.
func (l *Loader) importPath(rel string) (string, bool) {
	rel = filepath.ToSlash(rel)
	if rel == "." {
		if l.ModulePath == "" {
			return "", false
		}
		return l.ModulePath, true
	}
	if l.ModulePath == "" {
		return rel, true
	}
	return l.ModulePath + "/" + rel, true
}

// dirFor resolves an import path to a directory under Root, or reports
// that the path is external (standard library).
func (l *Loader) dirFor(path string) (string, bool) {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.Root, true
		}
		if strings.HasPrefix(path, l.ModulePath+"/") {
			return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/"))), true
		}
		return "", false
	}
	dir := filepath.Join(l.Root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir, true
	}
	return "", false
}

// Load parses and type-checks the package at the given import path,
// memoizing the result.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: cannot resolve %q under %s", path, l.Root)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// A file whose build constraints exclude it (a //go:build race
		// variant) is not part of the package go build type-checks.
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths load through the
// loader, everything else through the standard library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, l.Root, 0)
}
