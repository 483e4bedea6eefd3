// Package testwatch is the TestMain of every package whose code starts
// goroutines or takes a mutex. A hang or a leaked goroutine in such code
// fails no assertion, so Main fails the package for it, with every
// goroutine's stack:
//
//	func TestMain(m *testing.M) { testwatch.Main(m, 30*time.Second) }
//
// TestEveryConcurrentPackageIsWatched holds every such package to it.
package testwatch

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests, then exits. A hang fails within deadline
// (times -test.count, and 5 in a race build): Main sets -test.timeout to
// it, so testing's alarm panics with every goroutine's stack and names the
// running tests. It keeps a -timeout other than go test's default 10m, and
// the timeout of benchmarks and the fuzzer. A leak fails too: once every
// test has passed, goroutines started since Main began and still running
// 5 s later fail the package with their stacks.
func Main(m *testing.M, deadline time.Duration) {
	flag.Parse()
	if flagValue("test.fuzz") != "" { // the fuzzer and its workers, which get the same flags
		os.Exit(m.Run())
	}
	if flagValue("test.bench") == "" {
		setDeadline(deadline)
	}
	before := goroutines()
	code := m.Run()
	if code == 0 && leaked(before, 5*time.Second, os.Stderr) {
		code = 1
	}
	os.Exit(code)
}

// flagValue reads one of the flags testing registers before TestMain runs.
func flagValue(name string) string { return flag.Lookup(name).Value.String() }

func setDeadline(deadline time.Duration) {
	if cur, err := time.ParseDuration(flagValue("test.timeout")); err != nil || cur != 0 && cur != 10*time.Minute {
		return
	}
	if n, err := strconv.Atoi(flagValue("test.count")); err == nil && n > 1 {
		deadline *= time.Duration(n)
	}
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		deadline *= 5
	}
	if err := flag.Set("test.timeout", deadline.String()); err != nil {
		panic(err)
	}
}

// leaked prints to w the stacks of goroutines not in before that outlive wait.
func leaked(before map[string]string, wait time.Duration, w io.Writer) bool {
	var extra []string
	for end := time.Now().Add(wait); ; time.Sleep(20 * time.Millisecond) {
		extra = extra[:0]
		for id, stack := range goroutines() {
			if _, old := before[id]; !old {
				extra = append(extra, stack)
			}
		}
		if len(extra) == 0 {
			return false
		}
		if time.Now().After(end) {
			break
		}
	}
	fmt.Fprintf(w, "testwatch: %d goroutine(s) still running %s after the last test:\n\n%s\n",
		len(extra), wait, strings.Join(extra, "\n\n"))
	return true
}

// goroutines returns every goroutine's stack keyed by its id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		id, _, _ := strings.Cut(strings.TrimPrefix(string(g), "goroutine "), " ")
		out[id] = string(g)
	}
	return out
}
