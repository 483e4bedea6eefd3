package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fakeDaemon mimics arbord's routes closely enough to test arborctl's URL
// construction and error mapping.
func fakeDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	store := map[string]string{}
	mux := http.NewServeMux()
	mux.HandleFunc("/get", func(w http.ResponseWriter, r *http.Request) {
		v, ok := store[r.URL.Query().Get("key")]
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, v)
	})
	mux.HandleFunc("/put", func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, r.ContentLength)
		_, _ = r.Body.Read(body)
		store[r.URL.Query().Get("key")] = string(body)
		fmt.Fprintln(w, "ok level=0 contacts=2")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `arbor_cluster_level_size{level="0"} 3`)
	})
	mux.HandleFunc("/controller", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			fmt.Fprintln(w, `{"state":{"enabled":false},"journal":[]}`)
			return
		}
		fmt.Fprintf(w, "controller %sd\n", r.URL.Query().Get("action"))
	})
	mux.HandleFunc("/fault", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "use POST", http.StatusMethodNotAllowed)
			return
		}
		fmt.Fprintf(w, "done /fault %v\n", r.URL.Query())
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func ctl(t *testing.T, addr string, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(append([]string{"-addr", addr}, args...), &sb)
	return sb.String(), err
}

func TestPutGetStats(t *testing.T) {
	ts := fakeDaemon(t)
	if out, err := ctl(t, ts.URL, "put", "greeting", "hello"); err != nil || !strings.Contains(out, "ok level=") {
		t.Fatalf("put: %q %v", out, err)
	}
	out, err := ctl(t, ts.URL, "get", "greeting")
	if err != nil || strings.TrimSpace(out) != "hello" {
		t.Fatalf("get: %q %v", out, err)
	}
	out, err = ctl(t, ts.URL, "stats")
	if err != nil || !strings.Contains(out, "arbor_cluster_level_size") {
		t.Fatalf("stats: %q %v", out, err)
	}
}

func TestAdminCommands(t *testing.T) {
	ts := fakeDaemon(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"fault", "crash=3"}, "done /fault map[do:[crash=3]]"},
		{[]string{"fault", "drain=2+saturate=3"}, "done /fault map[do:[drain=2+saturate=3]]"},
		{[]string{"fault", "recoverall"}, "done /fault map[do:[recoverall]]"},
		{[]string{"fault", "reconfigure=1-3-5+4"}, "done /fault map[do:[reconfigure=1-3-5+4]]"},
		{[]string{"fault", "checkpoint"}, "done /fault map[do:[checkpoint]]"},
	} {
		out, err := ctl(t, ts.URL, tc.args...)
		if err != nil || strings.TrimSpace(out) != tc.want {
			t.Errorf("%v: %q %v, want %q", tc.args, out, err, tc.want)
		}
	}
}

func TestControllerCommand(t *testing.T) {
	ts := fakeDaemon(t)
	if out, err := ctl(t, ts.URL, "controller"); err != nil || !strings.Contains(out, `"enabled":false`) {
		t.Errorf("controller inspect: %q %v", out, err)
	}
	if out, err := ctl(t, ts.URL, "controller", "enable"); err != nil || !strings.Contains(out, "controller enabled") {
		t.Errorf("controller enable: %q %v", out, err)
	}
	if out, err := ctl(t, ts.URL, "controller", "disable"); err != nil || !strings.Contains(out, "controller disabled") {
		t.Errorf("controller disable: %q %v", out, err)
	}
	if _, err := ctl(t, ts.URL, "controller", "sideways"); err == nil {
		t.Error("bad controller action accepted")
	}
	if _, err := ctl(t, ts.URL, "controller", "enable", "now"); err == nil {
		t.Error("extra controller args accepted")
	}
}

func TestErrorMapping(t *testing.T) {
	ts := fakeDaemon(t)
	if _, err := ctl(t, ts.URL, "get", "missing"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing key error = %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	ts := fakeDaemon(t)
	for _, args := range [][]string{
		{},
		{"get"},
		{"put", "k"},
		{"fault"},
		{"fault", "crash=1", "crash=2"},
		{"checkpoint"},
		{"crash", "1"},
		{"reconfigure"},
		{"reconfigure", "1-4-4"},
		{"explode"},
	} {
		if _, err := ctl(t, ts.URL, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if err := run([]string{"-bogus"}, &strings.Builder{}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestUnreachableDaemon(t *testing.T) {
	if _, err := ctl(t, "http://127.0.0.1:1", "stats"); err == nil {
		t.Error("unreachable daemon produced no error")
	}
}
