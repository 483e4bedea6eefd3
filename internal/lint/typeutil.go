package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// calleeFunc resolves the function or method a call statically dispatches
// to. It returns nil for calls through function values, built-ins and type
// conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Qualified package call: pkg.Fn.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// pathMatches reports whether an import path's suffix matches the pattern,
// anchored at a path-segment boundary: pattern "internal/core" matches
// "arbor/internal/core" and "internal/core" but not "x/myinternal/core".
// This keeps analyzer scoping identical between the real module and
// testdata fixture trees.
func pathMatches(path string, re *regexp.Regexp) bool {
	return re.MatchString(path)
}

// segSuffix compiles a pattern matching import paths whose suffix is one
// of the given alternatives, at a segment boundary.
func segSuffix(alternatives string) *regexp.Regexp {
	return regexp.MustCompile(`(^|/)(` + alternatives + `)$`)
}

// rootIdent digs through index, slice, star and paren expressions to the
// base identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident { return digRoot(e, false) }

// rootVar is rootIdent digging through field selectors too: lt for lt.flat
// and for lt.levels[u].sites.
func rootVar(e ast.Expr) *ast.Ident { return digRoot(e, true) }

func digRoot(e ast.Expr, fields bool) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if !fields {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a short dotted form of an expression for diagnostic
// messages: "lt.flat", "c.levels[...]".
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if base := exprString(x.X); base != "" {
			return base + "." + x.Sel.Name
		}
		return x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return exprString(x.X)
	case *ast.CallExpr:
		if s := exprString(x.Fun); s != "" {
			return s + "()"
		}
	case *ast.IndexExpr:
		if s := exprString(x.X); s != "" {
			return s + "[...]"
		}
	}
	return ""
}

// implementsError reports whether t (or *t) satisfies the error interface.
func implementsError(t types.Type) bool {
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errType) || types.Implements(types.NewPointer(t), errType)
}

// isSentinelError reports whether the object is a package-level error
// variable named like a sentinel (ErrFoo).
func isSentinelError(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	if !strings.HasPrefix(v.Name(), "Err") || len(v.Name()) < 4 {
		return false
	}
	r := v.Name()[3]
	if r < 'A' || r > 'Z' {
		return false
	}
	return implementsError(v.Type())
}

// funcDeclsByObj indexes a package's function declarations by their type
// objects, so analyzers can chase same-package calls to bodies.
func funcDeclsByObj(pkg *Package) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				m[fn] = fd
			}
		}
	}
	return m
}

// inspectSkippingFuncLits walks the subtree rooted at n, calling fn for
// every node but not descending into function literals (which run on a
// different control path, usually a different goroutine).
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok && node != n {
			return false
		}
		return fn(node)
	})
}

// assignedObj resolves the object an assignment's left-hand identifier
// binds (covering both := definitions and = uses).
func assignedObj(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
