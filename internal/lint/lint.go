// Package lint is a from-scratch static-analysis framework for the arbor
// repository, built on the Go standard library only (go/parser, go/types,
// go/importer — no x/tools). It exists because the protocol's correctness
// rests on invariants the compiler cannot see: read quorums must take one
// physical node from every physical level and write quorums all nodes of
// one level (the paper's bi-coterie, §3.1), the deterministic packages must
// stay seed-reproducible so paper figures regenerate bit-for-bit, and a
// value documented read-only must never be written into.
//
// The framework has three parts: a package loader that walks the module
// and type-checks every package from source (load.go), a diagnostic engine
// with //lint:ignore suppression (this file, directive.go), and the five
// project-specific analyzers, each a walk over the syntax of one package
// (quorumshape.go, errwrapped.go, detrand.go, obswire.go, zerocopy.go).
// cmd/arborvet is the CLI driver; `make lint` and CI run it over the whole
// tree. Goroutine lifetimes, lock scopes and pooled-buffer lifecycles are
// not analyzers: they are path properties the tests hold by running the
// code, under internal/testwatch's deadline and leak check (DESIGN.md
// §4c). The closed wire message set is not an analyzer either: the wire
// package's tests check it on real values.
//
// Analyzers are tested against fixture packages under testdata/src/<name>
// with `// want "regexp"` expectations, mirroring x/tools' analysistest.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one named invariant check. Run inspects a single type-checked
// package and reports findings through the pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, located in file coordinates.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic the way compilers do, so editors can jump
// to it: path:line:col: message [analyzer].
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// RunAnalyzers runs every analyzer over every package, applies
// //lint:ignore suppressions, and returns the surviving diagnostics sorted
// by position. Malformed directives are themselves reported (analyzer
// "directive"), so a suppression can never silently rot.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ign := collectIgnores(pkg)
		diags = append(diags, ign.malformed...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				report: func(d Diagnostic) {
					if !ign.suppresses(d) {
						diags = append(diags, d)
					}
				},
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	// Nested constructs can make one analyzer visit the same node twice
	// (e.g. quorumshape analyzing both an outer and an inner loop); collapse
	// identical findings.
	dedup := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}
