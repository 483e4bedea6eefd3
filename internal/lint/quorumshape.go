package lint

import (
	"go/ast"
	"go/types"
)

// Scopes: internal/core and internal/quorum define the quorum shapes and
// may build site sets across levels; level-site accessors live on
// internal/core's Protocol and internal/tree's Tree.
var (
	quorumShapeExempt = segSuffix(`internal/(core|quorum)`)
	levelSitePkgs     = segSuffix(`internal/(core|tree)`)
)

// QuorumShape reports ad-hoc quorum assembly. The paper's bi-coterie
// guarantees (§3.1–3.2) hold only for two shapes: a read quorum takes one
// physical node from every physical level, a write quorum all nodes of one
// level. The client's quorum engine, the one executor, builds both from its
// levelTable, which keeps each level's members apart: one slot per level
// for a read, one level's members for a write. internal/analysis samples
// them through core.Protocol's PickReadQuorum and PickWriteQuorum. Code
// that loops over levels unioning LevelSites results — or hand-picking one
// site per level into an accumulator — is constructing a quorum whose
// intersection property nobody checks; one wrong bound and two writes can
// commit on disjoint site sets. Consuming LevelSites inside the loop
// (summing loads, printing, health checks) is fine; only cross-level
// accumulation into a quorum-shaped slice or map is flagged.
var QuorumShape = &Analyzer{
	Name: "quorumshape",
	Doc:  "quorums keep each physical level apart, as the engine's levelTable does; only internal/core and internal/quorum build cross-level site sets",
	Run:  runQuorumShape,
}

func runQuorumShape(pass *Pass) {
	if pathMatches(pass.Pkg.Path, quorumShapeExempt) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch loop := n.(type) {
			case *ast.ForStmt:
				checkLoopQuorumAssembly(pass, loop, loop.Body)
			case *ast.RangeStmt:
				checkLoopQuorumAssembly(pass, loop, loop.Body)
			}
			return true
		})
	}
}

// isLevelSitesCall reports whether the call is (*core.Protocol).LevelSites,
// (*tree.Tree).LevelSites or a fixture equivalent.
func isLevelSitesCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Name() != "LevelSites" {
		return false
	}
	return pathMatches(pkgPathOf(fn), levelSitePkgs)
}

// checkLoopQuorumAssembly analyzes one loop body: it finds LevelSites
// calls made inside the loop, tracks the locals their results (and range
// elements) flow into, and reports any accumulation of those values into a
// slice or map declared outside the loop.
func checkLoopQuorumAssembly(pass *Pass, loop ast.Node, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// derived holds objects carrying level-site values born inside this
	// loop iteration: vars assigned from LevelSites calls and range
	// element vars over them.
	derived := make(map[types.Object]bool)

	// If this is `for _, s := range p.LevelSites(u)`, the element variable
	// is derived.
	if rng, ok := loop.(*ast.RangeStmt); ok {
		if call, ok := ast.Unparen(rng.X).(*ast.CallExpr); ok && isLevelSitesCall(pass, call) {
			if id, ok := rng.Value.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}

	// Pass 1: collect locals assigned from LevelSites calls inside the
	// body, and range-element vars over derived slices.
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isLevelSitesCall(pass, call) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := types.Object(info.Defs[id]); obj != nil {
						derived[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						derived[obj] = true
					}
				}
			}
		case *ast.RangeStmt:
			isDerived := false
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isLevelSitesCall(pass, call) {
				isDerived = true
			} else if id := rootIdent(n.X); id != nil && derived[info.Uses[id]] {
				isDerived = true
			}
			if isDerived {
				if id, ok := n.Value.(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						derived[obj] = true
					}
				}
			}
		}
		return true
	})

	// unwrapConv strips type conversions: transport.Addr(s) carries
	// whatever s carries.
	var unwrapConv func(e ast.Expr) ast.Expr
	unwrapConv = func(e ast.Expr) ast.Expr {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return unwrapConv(call.Args[0])
			}
		}
		return e
	}
	carriesDerived := func(e ast.Expr) bool {
		e = unwrapConv(e)
		if call, ok := e.(*ast.CallExpr); ok {
			return isLevelSitesCall(pass, call)
		}
		if id := rootIdent(e); id != nil {
			return derived[info.Uses[id]]
		}
		return false
	}
	// outerObj is the variable id names when it is declared outside the
	// loop.
	outerObj := func(id *ast.Ident) types.Object {
		if id == nil {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil || (obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()) {
			return nil
		}
		return obj
	}

	// Pass 2: find cross-level accumulation into outer-declared
	// slices/maps.
	inspectSkippingFuncLits(body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return true
		}
		// acc = append(acc, <derived>...), acc rooted in a variable declared
		// outside the loop, through field selectors: lt.flat accumulates
		// into lt.
		if call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" &&
				info.Uses[id] == types.Universe.Lookup("append") && len(call.Args) > 0 {
				if acc := outerObj(rootVar(call.Args[0])); acc != nil {
					for _, arg := range call.Args[1:] {
						if carriesDerived(arg) {
							pass.Reportf(asg.Pos(),
								"ad-hoc cross-level quorum assembly into %s; keep levels apart as the client engine's levelTable does, or sample with core.Protocol's PickReadQuorum/PickWriteQuorum", exprString(call.Args[0]))
							return true
						}
					}
				}
			}
		}
		// acc[i] = <derived> with acc declared outside the loop. A field is
		// not followed: lt.addrs[u][i] keeps level u's sites in level u's
		// own slot.
		if idx, ok := ast.Unparen(asg.Lhs[0]).(*ast.IndexExpr); ok {
			if acc := outerObj(rootIdent(idx.X)); acc != nil && carriesDerived(asg.Rhs[0]) {
				pass.Reportf(asg.Pos(),
					"ad-hoc per-level quorum assembly into %s; keep levels apart as the client engine's levelTable does, or sample with core.Protocol's PickReadQuorum/PickWriteQuorum", acc.Name())
			}
		}
		return true
	})
}
