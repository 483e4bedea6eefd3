package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// doneChanName matches channel identifiers conventionally used as
// cancellation signals.
var doneChanName = regexp.MustCompile(`(?i)(done|stop|quit|exit|close)`)

// GoLeak reports goroutines with no way to terminate. Two shapes are
// flagged:
//
//   - a goroutine whose body has no path to the function exit at all — on
//     its control-flow graph the exit block is unreachable and no reachable
//     block receives from ctx.Done() or a done/stop-named channel — which
//     outlives every caller (transport.Serve's pump selects on a stop
//     channel for exactly this reason);
//   - a goroutine performing a bare blocking send, outside any select, on a
//     channel created unbuffered in the surrounding function: if the
//     receiver gives up (the hedging engine's loser-probe pattern), the
//     sender parks forever. Buffering the channel to the fan-out width, or
//     selecting on ctx.Done(), fixes it.
//
// The first check rides the CFG: before the rewrite it pattern-matched
// infinite `for` statements, which missed loops spelled with goto or
// labeled continue and misjudged breaks that only escape an inner loop.
// Reachability on the graph answers the real question — does any execution
// of this goroutine ever end?
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutines need a cancellation path or a drain",
	Run:  runGoLeak,
}

func runGoLeak(pass *Pass) {
	decls := funcDeclsByObj(pass.Pkg)
	makes := indexChanMakes(pass)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				checkGoroutineExit(pass, g, fun.Body)
				checkUnbufferedSend(pass, fun.Body, makes)
			default:
				// go c.dispatch() — chase same-package declarations.
				if fn := calleeFunc(pass.Pkg.Info, g.Call); fn != nil {
					if fd, ok := decls[fn]; ok && fd.Body != nil {
						checkGoroutineExit(pass, g, fd.Body)
					}
				}
			}
			return true
		})
	}
}

// checkGoroutineExit reports goroutine bodies whose CFG never reaches the
// function exit. A receive from a cancellation signal (ctx.Done(), a
// done/stop-named channel) anywhere reachable counts as an exit even
// without a return: the conventional shutdown idioms drain or return right
// after, and the old loop-based check grandfathered them for the same
// reason. Terminating calls (os.Exit, runtime.Goexit, panic) produce exit
// edges during CFG construction.
func checkGoroutineExit(pass *Pass, g *ast.GoStmt, body *ast.BlockStmt) {
	cfg := BuildCFG(body, pass)
	reach := cfg.Reachable()
	if reach[cfg.Exit] {
		return
	}
	for b := range reach {
		for _, n := range b.Nodes {
			found := false
			inspectSkippingFuncLits(n, func(m ast.Node) bool {
				if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW && isCancelSignal(pass, u.X) {
					found = true
				}
				return !found
			})
			if found {
				return
			}
		}
	}
	pass.Reportf(g.Pos(), "goroutine loops forever with no cancellation path: add a ctx.Done()/stop-channel case or a terminating return")
}

// isCancelSignal reports whether a channel expression looks like a
// cancellation signal: ctx.Done() for a context.Context, or a channel whose
// identifier is named done/stop/quit/exit/close.
func isCancelSignal(pass *Pass, ch ast.Expr) bool {
	ch = ast.Unparen(ch)
	if call, ok := ch.(*ast.CallExpr); ok {
		if fn := calleeFunc(pass.Pkg.Info, call); fn != nil && fn.Name() == "Done" && pkgPathOf(fn) == "context" {
			return true
		}
		ch = call.Fun
	}
	switch x := ch.(type) {
	case *ast.SelectorExpr:
		return doneChanName.MatchString(x.Sel.Name)
	default:
		if id := rootIdent(ch); id != nil {
			return doneChanName.MatchString(id.Name)
		}
	}
	return false
}

// checkUnbufferedSend reports bare sends, outside any select, on channels
// made without a buffer.
func checkUnbufferedSend(pass *Pass, body *ast.BlockStmt, makes map[types.Object]int) {
	info := pass.Pkg.Info
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			return // different goroutine/control path
		case *ast.SelectStmt:
			return // a send inside select has alternatives
		case *ast.SendStmt:
			id := rootIdent(n.Chan)
			if id == nil {
				return
			}
			obj := info.Uses[id]
			if obj == nil {
				return
			}
			if cap, ok := makes[obj]; ok && cap == 0 {
				pass.Reportf(n.Pos(), "blocking send on unbuffered channel %s in goroutine can leak if the receiver gives up; buffer the channel or select on a cancellation signal", id.Name)
			}
			return
		}
		children(n, walk)
	}
	walk(body)
}

// children invokes fn on each immediate child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		fn(m)
		return false
	})
}

// indexChanMakes scans the package for `v := make(chan T[, n])`
// initializations, recording each channel variable's literal buffer
// arity (0 = unbuffered) so send sites can see capacities.
func indexChanMakes(pass *Pass) map[types.Object]int {
	makes := make(map[types.Object]int)
	info := pass.Pkg.Info
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "make" || info.Uses[id] != types.Universe.Lookup("make") {
			return
		}
		tv, ok := info.Types[call.Args[0]]
		if !ok {
			return
		}
		if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
			return
		}
		lid, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := types.Object(info.Defs[lid])
		if obj == nil {
			obj = info.Uses[lid]
		}
		if obj != nil {
			makes[obj] = len(call.Args) - 1
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Rhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Values {
						record(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	return makes
}
