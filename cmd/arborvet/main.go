// Command arborvet runs the repository's custom static analyzers over the
// module: protocol invariants (quorum shapes, deterministic packages) and
// concurrency/engineering rules (goroutine leaks, lock scopes, error
// wrapping, observability coverage) that go vet cannot know about. It
// complements vet, not replaces it.
//
// Usage:
//
//	arborvet [-json] [-github] [-budget d] [packages]
//
// Every registered analyzer runs. Package patterns are module-relative:
// ./... (default) analyzes every package, ./internal/... a subtree,
// ./internal/client one package. Diagnostics print as path:line:col:
// message [analyzer]; -json prints a machine-readable array instead. A
// finding is suppressed only in the source, by a //lint:ignore directive.
// -github additionally emits ::error workflow annotations for CI. -budget
// fails the run when analysis wall time exceeds the duration, keeping
// `make lint` honest about its latency.
//
// The exit status is 1 when any diagnostic is reported or the budget is
// blown, 2 on usage or load errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"arbor/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	budget := flag.Duration("budget", 0, "fail if load+analysis exceeds this wall time (0 = no budget)")
	flag.Parse()

	root, modPath, err := findModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "arborvet: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	loader := lint.NewLoader(root, modPath)
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "arborvet: %v\n", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected, err := filterPackages(pkgs, modPath, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arborvet: %v\n", err)
		os.Exit(2)
	}

	diags := lint.RunAnalyzers(selected, lint.All())
	elapsed := time.Since(start)

	// Relativize paths for output, so findings read the same in every
	// checkout.
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "arborvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *github {
		for _, d := range diags {
			fmt.Println(githubAnnotation(d))
		}
	}

	failed := false
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "arborvet: %d finding(s)\n", len(diags))
		failed = true
	}
	if *budget > 0 && elapsed > *budget {
		fmt.Fprintf(os.Stderr, "arborvet: analysis took %s, over the %s budget; profile the loader or split the run\n",
			elapsed.Round(time.Millisecond), *budget)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// jsonDiag is the machine-readable finding shape of -json output.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits findings as an indented JSON array (an empty run prints
// [], so downstream tooling always gets valid JSON).
func writeJSON(w io.Writer, diags []lint.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// githubAnnotation renders a finding as a GitHub Actions workflow command,
// which the runner turns into an inline PR annotation. Message text is
// escaped per the workflow-command rules.
func githubAnnotation(d lint.Diagnostic) string {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace
	prop := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C").Replace
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=%s::%s",
		prop(d.Pos.Filename), d.Pos.Line, d.Pos.Column, prop(d.Analyzer), esc(d.Message))
}

// findModule walks up from the working directory to the nearest go.mod and
// returns the module root and module path.
func findModule() (root, modPath string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if _, err := os.Stat(gomod); err == nil {
			mp, err := modulePath(gomod)
			if err != nil {
				return "", "", err
			}
			return dir, mp, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// filterPackages selects loaded packages by module-relative patterns.
func filterPackages(pkgs []*lint.Package, modPath string, patterns []string) ([]*lint.Package, error) {
	match := func(pkg *lint.Package) (bool, error) {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, modPath), "/")
		for _, pat := range patterns {
			pat = strings.TrimPrefix(strings.TrimPrefix(pat, "./"), "/")
			switch {
			case pat == "...":
				return true, nil
			case strings.HasSuffix(pat, "/..."):
				prefix := strings.TrimSuffix(pat, "/...")
				if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
					return true, nil
				}
			case pat == "" || pat == ".":
				if rel == "" {
					return true, nil
				}
			default:
				if rel == filepath.ToSlash(filepath.Clean(pat)) {
					return true, nil
				}
			}
		}
		return false, nil
	}
	var out []*lint.Package
	for _, p := range pkgs {
		ok, err := match(p)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	return out, nil
}
