package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseOne builds a minimal Package (no type info) for directive tests.
func parseOne(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}}
}

func TestIgnoreDirective(t *testing.T) {
	pkg := parseOne(t, `package p

//lint:ignore zerocopy worker drains on close
var a int

var b int //lint:ignore detrand,zerocopy seeded for the figure

var c int
`)
	ign := collectIgnores(pkg)
	if len(ign.malformed) != 0 {
		t.Fatalf("unexpected malformed directives: %v", ign.malformed)
	}
	diag := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "p.go", Line: line}, Analyzer: analyzer}
	}
	// Line 3 holds the first directive; it covers lines 3 and 4.
	if !ign.suppresses(diag(4, "zerocopy")) {
		t.Error("directive above the line did not suppress")
	}
	if ign.suppresses(diag(4, "detrand")) {
		t.Error("directive suppressed an analyzer it does not name")
	}
	if ign.suppresses(diag(5, "zerocopy")) {
		t.Error("directive leaked past the line below it")
	}
	// Line 6 holds the end-of-line directive with two analyzers.
	if !ign.suppresses(diag(6, "detrand")) || !ign.suppresses(diag(6, "zerocopy")) {
		t.Error("end-of-line multi-analyzer directive did not suppress its own line")
	}
	if ign.suppresses(diag(8, "detrand")) {
		t.Error("suppression applied to an uncovered line")
	}
}

func TestIgnoreDirectiveMalformed(t *testing.T) {
	pkg := parseOne(t, `package p

//lint:ignore zerocopy
var a int

//lint:ignore
var b int
`)
	ign := collectIgnores(pkg)
	if len(ign.malformed) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2: %v", len(ign.malformed), ign.malformed)
	}
	for _, d := range ign.malformed {
		if d.Analyzer != "directive" {
			t.Errorf("malformed directive attributed to %q, want \"directive\"", d.Analyzer)
		}
	}
	// A reason-less directive must not suppress anything.
	if ign.suppresses(Diagnostic{Pos: token.Position{Filename: "p.go", Line: 4}, Analyzer: "zerocopy"}) {
		t.Error("malformed directive still suppressed")
	}
}
