package lint

import (
	"go/ast"
	"go/types"
)

// Analyzer scopes, expressed as import-path suffixes so they hold for both
// the real module ("arbor/internal/client") and fixtures
// ("internal/client" under testdata).
var (
	obsWireScope = segSuffix(`internal/(client|replica|adapt)`)
	wirePkgs     = segSuffix(`internal/(rpc|transport)`)
	obsPkg       = segSuffix(`internal/obs`)
)

// ObsWire reports exported entry points in the client, replica and adapt
// packages that send replica traffic but record no observability. Every
// operation that touches the wire feeds a metric or an operation trace, so
// production incidents can be read off /metrics and /traces instead of
// reconstructed from logs; a new exported call path that dodges
// instrumentation silently un-observes part of the workload. The replica
// package is in scope for the anti-entropy syncer (catch-up is
// replica-initiated wire traffic), the adaptation controller for live
// migrations (a controller action that drove replica traffic without
// journaling or metrics would be exactly the unexplained reconfiguration
// the decision journal exists to rule out). The rpc and transport packages
// are not: they keep no instruments by design, and their callers book every
// contact and send.
//
// "Sends traffic" means (transitively, through same-package calls) invoking
// Start, Call or Send on the rpc or transport packages — Start is how the
// client's quorum engine sends every read, prepare and commit; "records
// observability" means (transitively) referencing anything from
// internal/obs.
var ObsWire = &Analyzer{
	Name: "obswire",
	Doc:  "exported client/replica/adapt entry points that touch the wire must be instrumented",
	Run:  runObsWire,
}

func runObsWire(pass *Pass) {
	if !pathMatches(pass.Pkg.Path, obsWireScope) {
		return
	}
	info := pass.Pkg.Info

	type facts struct {
		wire, obs bool
		calls     map[*types.Func]bool
	}
	all := make(map[*types.Func]*facts)
	decls := funcDeclsByObj(pass.Pkg)

	for fn, fd := range decls {
		f := &facts{calls: make(map[*types.Func]bool)}
		all[fn] = f
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && pathMatches(pkgPathOf(obj), obsPkg) {
					f.obs = true
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[n]; ok && pathMatches(pkgPathOf(sel.Obj()), obsPkg) {
					f.obs = true
				}
			case *ast.CallExpr:
				callee := calleeFunc(info, n)
				if callee == nil {
					return true
				}
				if n := callee.Name(); (n == "Start" || n == "Call" || n == "Send") && pathMatches(pkgPathOf(callee), wirePkgs) {
					f.wire = true
				}
				if callee.Pkg() == pass.Pkg.Types {
					f.calls[callee] = true
				}
			}
			return true
		})
	}

	// Propagate wire and obs facts through the same-package call graph to
	// a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, f := range all {
			for callee := range f.calls {
				cf, ok := all[callee]
				if !ok {
					continue
				}
				if cf.wire && !f.wire {
					f.wire = true
					changed = true
				}
				if cf.obs && !f.obs {
					f.obs = true
					changed = true
				}
			}
		}
	}

	for fn, fd := range decls {
		if !fn.Exported() || !receiverExported(fn) {
			continue
		}
		f := all[fn]
		if f.wire && !f.obs {
			pass.Reportf(fd.Name.Pos(),
				"exported entry point %s sends replica traffic but records no metrics or trace; wire it into the obs instruments", fn.Name())
		}
	}
}

// receiverExported reports whether the function is package-level API: a
// plain function, or a method on an exported receiver type.
func receiverExported(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return true
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Exported()
}
