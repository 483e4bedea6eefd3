package testwatch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m, 30*time.Second) }

// TestDeadlineArmed: under go test without -timeout, Main has replaced the
// ten-minute default with this package's deadline.
func TestDeadlineArmed(t *testing.T) {
	if flagValue("test.bench") != "" {
		t.Skip("benchmarks keep the caller's timeout")
	}
	got, err := time.ParseDuration(flagValue("test.timeout"))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("-test.timeout = %v", got)
	if got == 0 || got == 10*time.Minute {
		t.Errorf("-test.timeout = %v: the deadline was not applied", got)
	}
}

func TestLeakedWaitsForGoroutinesToEnd(t *testing.T) {
	before := goroutines()
	go time.Sleep(50 * time.Millisecond)
	if leaked(before, 2*time.Second, io.Discard) {
		t.Error("a goroutine that ends within the wait was reported")
	}
}

func TestLeakedReportsStuckGoroutine(t *testing.T) {
	before := goroutines()
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }()
	var out strings.Builder
	if !leaked(before, 100*time.Millisecond, &out) {
		t.Fatal("a goroutine blocked past the wait was not reported")
	}
	if !strings.Contains(out.String(), "TestLeakedReportsStuckGoroutine.func1") {
		t.Errorf("the report does not show the stuck goroutine's stack:\n%s", out.String())
	}
}

// TestEveryConcurrentPackageIsWatched: a package of this module whose code
// starts a goroutine or declares a mutex runs its tests under Main, so a
// hang in it fails within its deadline and a leak fails the package.
func TestEveryConcurrentPackageIsWatched(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	missing, err := unwatched(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range missing {
		t.Errorf("%s starts goroutines or takes a mutex, but no test file calls testwatch.Main from TestMain", dir)
	}
}

// TestUnwatchedFindsPackageWithoutMain runs the check on a scratch module:
// of a package with a go statement, one with a mutex and a TestMain, and
// one with neither, only the first is reported.
func TestUnwatchedFindsPackageWithoutMain(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":           "module scratch\n",
		"spawn/spawn.go":   "package spawn\n\nfunc Start() { go func() {}() }\n",
		"locked/locked.go": "package locked\n\nimport \"sync\"\n\nvar mu sync.Mutex\n",
		"locked/main_test.go": "package locked\n\nimport (\n\t\"testing\"\n\t\"time\"\n\n\t\"arbor/internal/testwatch\"\n)\n\n" +
			"func TestMain(m *testing.M) { testwatch.Main(m, time.Minute) }\n",
		"plain/plain.go":             "package plain\n\nfunc F() {}\n",
		"spawn/testdata/x/x.go":      "package x\n\nfunc G() { go G() }\n",
		"nested/go.mod":              "module nested\n",
		"nested/inner/inner.go":      "package inner\n\nfunc H() { go H() }\n",
		"spawn/spawn_helper_test.go": "package spawn\n\nfunc helper() { go helper() }\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := unwatched(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"spawn"}; !reflect.DeepEqual(got, want) {
		t.Errorf("unwatched = %v, want %v", got, want)
	}
}

// unwatched walks the module rooted at root (skipping testdata and nested
// modules) and returns, relative to root, every package directory whose
// non-test files have a go statement or name sync.Mutex or sync.RWMutex
// while none of its test files calls testwatch.Main.
func unwatched(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		concurrent, watched, err := scanPackage(path)
		if err != nil {
			return err
		}
		if concurrent && !watched {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(rel))
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// scanPackage parses the .go files of one directory.
func scanPackage(dir string) (concurrent, watched bool, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return false, false, err
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return false, false, err
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				concurrent = concurrent || !isTest
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					switch {
					case !isTest && x.Name == "sync" && (n.Sel.Name == "Mutex" || n.Sel.Name == "RWMutex"):
						concurrent = true
					case isTest && x.Name == "testwatch" && n.Sel.Name == "Main":
						watched = true
					}
				}
			}
			return true
		})
	}
	return concurrent, watched, nil
}
