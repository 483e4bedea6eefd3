package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"arbor/internal/lint"
)

func diag(file string, line int, analyzer, msg string) lint.Diagnostic {
	return lint.Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 3},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	diags := []lint.Diagnostic{
		diag("internal/a/a.go", 10, "detrand", "goroutine loops forever"),
		diag("internal/b/b.go", 20, "zerocopy", "use of bp after it was returned to the pool"),
	}
	var sb strings.Builder
	if err := writeJSON(&sb, diags); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var got []jsonDiag
	if err := json.Unmarshal([]byte(sb.String()), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(got) != 2 || got[0].Analyzer != "detrand" || got[1].File != "internal/b/b.go" || got[1].Line != 20 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := writeJSON(&sb, nil); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	if strings.TrimSpace(sb.String()) != "[]" {
		t.Fatalf("empty run must print [], got %q", sb.String())
	}
}

func TestGithubAnnotation(t *testing.T) {
	d := diag("internal/a/a.go", 7, "detrand", "tag mismatch: 50% drift\nsecond line")
	got := githubAnnotation(d)
	want := "::error file=internal/a/a.go,line=7,col=3,title=detrand::tag mismatch: 50%25 drift%0Asecond line"
	if got != want {
		t.Errorf("githubAnnotation:\n got %q\nwant %q", got, want)
	}
}

func TestFilterPackages(t *testing.T) {
	pkgs := []*lint.Package{
		{Path: "arbor/internal/lint"},
		{Path: "arbor/internal/wire"},
		{Path: "arbor/cmd/arborvet"},
	}
	sel, err := filterPackages(pkgs, "arbor", []string{"./internal/..."})
	if err != nil || len(sel) != 2 {
		t.Fatalf("filterPackages(./internal/...) = %v pkgs, err %v; want 2", len(sel), err)
	}
	sel, err = filterPackages(pkgs, "arbor", []string{"./..."})
	if err != nil || len(sel) != 3 {
		t.Fatalf("filterPackages(./...) = %v pkgs, err %v; want 3", len(sel), err)
	}
	if _, err := filterPackages(pkgs, "arbor", []string{"./nosuch"}); err == nil {
		t.Fatal("filterPackages must reject patterns matching nothing")
	}
}
