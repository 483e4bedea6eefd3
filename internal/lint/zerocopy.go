package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// zeroCopyRegistry names struct fields whose values are shared across an
// API boundary and documented read-only. Doc markers cover the defining
// package (the analyzer sees its comments); the registry covers callers in
// other packages, where comments of the defining package are out of reach.
// ReadResult.Value is the canonical entry: on the in-memory network it is
// the very slice the replica stores, so a caller appending to it corrupts
// every later read of the key.
var zeroCopyRegistry = []struct {
	pkg   *regexp.Regexp
	typ   string
	field string
}{
	{segSuffix(`internal/client`), "ReadResult", "Value"},
}

// zeroCopyMarker matches field doc comments that declare the shared,
// do-not-mutate contract.
var zeroCopyMarker = regexp.MustCompile(`(?i)read[- ]only`)

// ZeroCopy reports mutations of values documented as shared and read-only.
// Zero-copy hand-offs (read results that are the store's own slice, pooled
// frame buffers surfaced through decode) trade an allocation for a contract the
// compiler cannot check: the receiver must not write. Flagged shapes:
// indexed writes into the field, append with the field as base (growth in
// place clobbers the shared array when capacity allows), copy with the
// field as destination — directly or through a local alias assigned from
// the field in the same function.
var ZeroCopy = &Analyzer{
	Name: "zerocopy",
	Doc:  "values documented read-only (shared backing arrays) must not be mutated or appended to",
	Run:  runZeroCopy,
}

func runZeroCopy(pass *Pass) {
	marked := collectMarkedFields(pass)
	isReadOnly := func(sel *ast.SelectorExpr) (string, bool) {
		s, ok := pass.Pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return "", false
		}
		obj := s.Obj()
		if marked[obj] {
			return obj.Name(), true
		}
		recv := s.Recv()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return "", false
		}
		tn := named.Obj()
		for _, e := range zeroCopyRegistry {
			if tn.Name() == e.typ && obj.Name() == e.field && pathMatches(pkgPathOf(tn), e.pkg) {
				return obj.Name(), true
			}
		}
		return "", false
	}
	funcBodies(pass.Pkg, func(body *ast.BlockStmt) {
		checkZeroCopyBody(pass, body, isReadOnly)
	})
}

// funcBodies yields every function body in the package, declarations and
// literals alike.
func funcBodies(pkg *Package, fn func(body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				fn(n.Body)
			}
			return true
		})
	}
}

// collectMarkedFields finds struct fields whose doc or line comment carries
// the read-only marker.
func collectMarkedFields(pass *Pass) map[types.Object]bool {
	marked := make(map[types.Object]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				text := ""
				if field.Doc != nil {
					text += field.Doc.Text()
				}
				if field.Comment != nil {
					text += field.Comment.Text()
				}
				if !zeroCopyMarker.MatchString(text) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.Pkg.Info.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	return marked
}

// checkZeroCopyBody scans one function body. Alias tracking is
// flow-insensitive and single-level by design: `v := r.Value` marks v for
// the rest of the body, which matches how the hand-off idiom is actually
// written (bind once, use below).
func checkZeroCopyBody(pass *Pass, body *ast.BlockStmt, isReadOnly func(*ast.SelectorExpr) (string, bool)) {
	info := pass.Pkg.Info

	// Pass 1: locals assigned directly from a read-only field.
	aliases := make(map[types.Object]string)
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return true
		}
		for i := range asg.Lhs {
			sel, ok := ast.Unparen(asg.Rhs[i]).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			field, ro := isReadOnly(sel)
			if !ro {
				continue
			}
			if obj := assignedObj(info, asg.Lhs[i]); obj != nil {
				aliases[obj] = field
			}
		}
		return true
	})

	// readOnlyBase resolves an expression to the read-only field it roots
	// in: the field selector itself, a slice of it, or a marked alias.
	readOnlyBase := func(e ast.Expr) (string, bool) {
		e = ast.Unparen(e)
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = ast.Unparen(sl.X)
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return isReadOnly(sel)
		}
		if id, ok := e.(*ast.Ident); ok {
			if field, ok := aliases[info.Uses[id]]; ok {
				return field, true
			}
		}
		return "", false
	}

	// Pass 2: mutations.
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if field, ro := readOnlyBase(ix.X); ro {
					pass.Reportf(lhs.Pos(), "write into read-only field %s mutates a shared backing array; copy before mutating", field)
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
				if field, ro := readOnlyBase(ix.X); ro {
					pass.Reportf(n.Pos(), "write into read-only field %s mutates a shared backing array; copy before mutating", field)
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok || len(n.Args) == 0 || info.Uses[id] != types.Universe.Lookup(id.Name) {
				return true
			}
			switch id.Name {
			case "append":
				if field, ro := readOnlyBase(n.Args[0]); ro {
					pass.Reportf(n.Pos(), "append to read-only field %s may grow in place and clobber the shared backing array; copy first", field)
				}
			case "copy":
				if field, ro := readOnlyBase(n.Args[0]); ro {
					pass.Reportf(n.Pos(), "copy into read-only field %s overwrites shared bytes; copy out of it instead", field)
				}
			}
		}
		return true
	})
}
