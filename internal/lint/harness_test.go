package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors x/tools' analysistest: each analyzer has a
// fixture tree under testdata/src/<name>/ whose files carry
//
//	// want `regexp`
//
// comments on the lines where a diagnostic is expected. Running the
// analyzer must produce exactly the expected set: every want matched by a
// diagnostic on its line, no diagnostic without a want.

// wantPattern is one expectation: a regexp the diagnostic message on this
// line must match.
type wantPattern struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantArgRe matches one backtick- or double-quoted pattern at the start of
// a want comment's remainder.
var wantArgRe = regexp.MustCompile("^(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// parseWants extracts want expectations from one file's comments.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*wantPattern {
	t.Helper()
	var wants []*wantPattern
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "// want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			rest = strings.TrimSpace(rest)
			for rest != "" {
				m := wantArgRe.FindString(rest)
				if m == "" {
					t.Fatalf("%s:%d: malformed want comment near %q", pos.Filename, pos.Line, rest)
				}
				pat := m[1 : len(m)-1]
				if m[0] == '"' {
					pat = strings.ReplaceAll(pat, `\"`, `"`)
					pat = strings.ReplaceAll(pat, `\\`, `\`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
				}
				wants = append(wants, &wantPattern{file: pos.Filename, line: pos.Line, re: re})
				rest = strings.TrimSpace(rest[len(m):])
			}
		}
	}
	return wants
}

// runFixture loads the analyzer's fixture tree, runs the analyzer, and
// checks the diagnostics against the want expectations. It returns the
// number of expectations so callers can assert the fixture actually
// triggers the analyzer.
func runFixture(t *testing.T, a *Analyzer) int {
	t.Helper()
	root := filepath.Join("testdata", "src", a.Name)
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("analyzer %s has no fixture: %v", a.Name, err)
	}
	pkgs, err := NewLoader(root, "").LoadAll()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", root, err)
	}
	var wants []*wantPattern
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			wants = append(wants, parseWants(t, pkg.Fset, f)...)
		}
	}

	diags := RunAnalyzers(pkgs, []*Analyzer{a})
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return len(wants)
}

// TestAnalyzers runs every registered analyzer over its fixture tree. Each
// fixture must both trigger the analyzer (at least one want) and pass it
// (no unexpected diagnostics), so a regression in either direction fails.
func TestAnalyzers(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			if n := runFixture(t, a); n == 0 {
				t.Errorf("fixture for %s has no // want expectations; it cannot prove the analyzer fires", a.Name)
			}
		})
	}
}

// TestEveryAnalyzerHasFixture is the registry meta-test: registering an
// analyzer without a fixture directory is itself a failure.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		dir := filepath.Join("testdata", "src", a.Name)
		st, err := os.Stat(dir)
		if err != nil || !st.IsDir() {
			t.Errorf("analyzer %s has no fixture directory %s", a.Name, dir)
		}
	}
}

func TestVerbForArgs(t *testing.T) {
	cases := []struct {
		format string
		want   map[int]byte
	}{
		{"no verbs", map[int]byte{}},
		{"%d %s", map[int]byte{0: 'd', 1: 's'}},
		{"100%% done: %v", map[int]byte{0: 'v'}},
		{"%+v %#x % d", map[int]byte{0: 'v', 1: 'x', 2: 'd'}},
		{"%8.3f", map[int]byte{0: 'f'}},
		{"%*d", map[int]byte{0: '*', 1: 'd'}},
		{"%.*f", map[int]byte{0: '*', 1: 'f'}},
		{"%[2]s %[1]s", map[int]byte{0: 's', 1: 's'}},
		{"%w: %v", map[int]byte{0: 'w', 1: 'v'}},
		{"trailing %", map[int]byte{}},
	}
	for _, tc := range cases {
		got := verbForArgs(tc.format)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("verbForArgs(%q) = %v, want %v", tc.format, got, tc.want)
		}
	}
}
