package lint

import (
	"go/ast"
	"go/token"
)

// LockScope reports mutexes held across blocking operations. A mutex
// guarding hot-path state (the site book's records, the caller's pending
// map) must bound its critical section by CPU work only: a channel
// send/receive, select, time.Sleep or WaitGroup.Wait under the lock stalls
// every other operation on the client — and with reply routing also
// needing the lock, can deadlock the process.
// sync.Cond.Wait is exempt (it releases the lock while parked).
//
// Since the CFG rewrite the check is path-sensitive: "held" is a forward
// may-fact over the function's control-flow graph (gen at Lock, kill at
// Unlock, union at joins), so a lock taken in one branch is tracked through
// the join, across loop back edges, and through gotos — shapes the old
// linear scan under-approximated. defer mu.Unlock() keeps the lock held to
// function end, which is exactly the window the check cares about.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "mutexes must not be held across blocking operations",
	Run:  runLockScope,
}

// Lock/unlock method sets, identified by their fully qualified names so
// embedding and aliasing cannot fool the check.
var (
	lockMethods = map[string]bool{
		"(*sync.Mutex).Lock":    true,
		"(*sync.RWMutex).Lock":  true,
		"(*sync.RWMutex).RLock": true,
	}
	unlockMethods = map[string]bool{
		"(*sync.Mutex).Unlock":    true,
		"(*sync.RWMutex).Unlock":  true,
		"(*sync.RWMutex).RUnlock": true,
	}
	blockingCalls = map[string]string{
		"time.Sleep":             "time.Sleep",
		"(*sync.WaitGroup).Wait": "WaitGroup.Wait",
	}
)

const heldPrefix = "held:"

func runLockScope(pass *Pass) {
	funcBodies(pass.Pkg, func(_ *ast.FuncDecl, body *ast.BlockStmt) {
		cfg := BuildCFG(body, pass)
		transfer := lockTransfer(pass)
		entry := ForwardFlow(cfg, nil, transfer)
		WalkFlow(cfg, entry, transfer, func(b *Block, i int, n ast.Node, facts Facts) {
			if len(facts) == 0 {
				return
			}
			// A select clause's comm operation has an alternative — the
			// select head already reported the blocking point (or had a
			// default); don't re-report each arm.
			if b.Kind == "select.case" && i == 0 {
				return
			}
			reportBlockingIn(pass, n, facts)
		})
	})
}

// lockTransfer builds the gen/kill function: mu.Lock() generates a held
// fact keyed by the receiver's dotted form, mu.Unlock() kills it. A
// deferred unlock deliberately does not kill — the lock stays held to
// function end.
func lockTransfer(pass *Pass) Transfer {
	return func(n ast.Node, facts Facts) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return
		}
		key, kind := lockCallKey(pass, call)
		if key == "" {
			return
		}
		switch kind {
		case lockKindLock:
			facts[heldPrefix+key] = call.Pos()
		case lockKindUnlock:
			delete(facts, heldPrefix+key)
		}
	}
}

type lockKind int

const (
	lockKindNone lockKind = iota
	lockKindLock
	lockKindUnlock
)

// lockCallKey identifies mu.Lock()/mu.Unlock() calls, returning the
// receiver's dotted form and whether it locks or unlocks.
func lockCallKey(pass *Pass, call *ast.CallExpr) (string, lockKind) {
	fn := calleeFunc(pass.Pkg.Info, call)
	if fn == nil {
		return "", lockKindNone
	}
	name := fn.FullName()
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", lockKindNone
	}
	switch {
	case lockMethods[name]:
		return exprString(sel.X), lockKindLock
	case unlockMethods[name]:
		return exprString(sel.X), lockKindUnlock
	}
	return "", lockKindNone
}

// heldNames renders the held set for a diagnostic: the lexically smallest
// lock key, deterministically.
func heldNames(facts Facts) string {
	out := ""
	for k := range facts {
		name := k[len(heldPrefix):]
		if out == "" || name < out {
			out = name
		}
	}
	return out
}

// reportBlockingIn scans one CFG node for blocking operations performed
// while locks are held. Function literals are separate control paths and
// are skipped; a blocking select appears as the builder's synthetic
// empty-body marker, so clause bodies (their own blocks) are not re-walked.
func reportBlockingIn(pass *Pass, node ast.Node, held Facts) {
	if sel, ok := node.(*ast.SelectStmt); ok {
		if len(sel.Body.List) == 0 { // builder's blocking-select marker
			pass.Reportf(sel.Pos(), "%s held across blocking select; release the lock first", heldNames(held))
		}
		return
	}
	inspectSkippingFuncLits(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "%s held across channel send; release the lock first", heldNames(held))
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "%s held across channel receive; release the lock first", heldNames(held))
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Pkg.Info, n); fn != nil {
				if what, ok := blockingCalls[fn.FullName()]; ok {
					pass.Reportf(n.Pos(), "%s held across %s; release the lock first", heldNames(held), what)
				}
			}
		}
		return true
	})
}
