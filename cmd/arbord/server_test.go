package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/tree"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newConfiguredServer(t, cluster.Config{Seed: 1})
}

// newConfiguredServer is newTestServer on cfg.
func newConfiguredServer(t *testing.T, cfg cluster.Config) (*server, *httptest.Server) {
	t.Helper()
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(tr, cfg, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestPutGetRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, http.MethodPut, ts.URL+"/put?key=greeting", "hello")
	if code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	if !strings.Contains(body, "ok level=") {
		t.Errorf("put body = %q", body)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/get?key=greeting", "")
	if code != http.StatusOK || body != "hello" {
		t.Errorf("get: %d %q", code, body)
	}
}

// TestPutInDoubt: a write whose commits all go unacknowledged is committed
// but in doubt — 202 with its version header set and a body that says so.
func TestPutInDoubt(t *testing.T) {
	tr, err := tree.ParseSpec("1-3-5")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(tr, cluster.Config{Seed: 1}, 64, []client.Option{client.WithTimeout(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	for _, site := range srv.cluster.Tree().Sites() {
		srv.cluster.Replica(site).SetFailPoint(replica.FailOnCommit)
	}
	resp, err := http.Post(ts.URL+"/put?key=k", "text/plain", strings.NewReader("v"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || !strings.HasPrefix(string(body), "in doubt level=") {
		t.Errorf("in-doubt put: %d %q, want 202 \"in doubt level=…\"", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-Arbor-Version"); v == "" {
		t.Error("in-doubt put answered without X-Arbor-Version")
	}
}

func TestGetMissingKey(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := do(t, http.MethodGet, ts.URL+"/get?key=nope", ""); code != http.StatusNotFound {
		t.Errorf("missing key: %d", code)
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/get", ""); code != http.StatusBadRequest {
		t.Errorf("missing param: %d", code)
	}
}

func TestPutValidation(t *testing.T) {
	_, ts := newTestServer(t)
	if code, _ := do(t, http.MethodGet, ts.URL+"/put?key=k", "v"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET on /put: %d", code)
	}
	if code, _ := do(t, http.MethodPut, ts.URL+"/put", "v"); code != http.StatusBadRequest {
		t.Errorf("missing key: %d", code)
	}
}

// TestControllerEndpoint exercises inspection and toggling of the
// adaptation controller: fresh servers start disabled, enable/disable
// round-trips (journaling each transition), and malformed requests map to
// 4xx.
func TestControllerEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	getController := func(query string) controllerResponse {
		t.Helper()
		code, body := do(t, http.MethodGet, ts.URL+"/controller"+query, "")
		if code != http.StatusOK {
			t.Fatalf("/controller: %d %s", code, body)
		}
		var resp controllerResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("/controller JSON: %v in %s", err, body)
		}
		return resp
	}

	resp := getController("")
	if resp.State.Enabled {
		t.Error("controller starts enabled, want disabled")
	}
	if resp.State.CurrentSpec != "1-3-5" || resp.State.Window == 0 {
		t.Errorf("controller state = %+v", resp.State)
	}
	if len(resp.Journal) != 0 {
		t.Errorf("fresh controller has %d journal entries, want 0", len(resp.Journal))
	}

	code, body := do(t, http.MethodPost, ts.URL+"/controller?action=enable", "")
	if code != http.StatusOK || !strings.Contains(body, "controller enabled") {
		t.Fatalf("enable: %d %q", code, body)
	}
	code, body = do(t, http.MethodPost, ts.URL+"/controller?action=enable", "")
	if code != http.StatusOK || !strings.Contains(body, "already enabled") {
		t.Errorf("re-enable: %d %q", code, body)
	}
	resp = getController("?last=10")
	if !resp.State.Enabled {
		t.Error("controller not enabled after POST")
	}
	if len(resp.Journal) != 1 || resp.Journal[0].Action != "enable" {
		t.Errorf("journal after enable = %+v, want one enable entry", resp.Journal)
	}
	if code, body := do(t, http.MethodPost, ts.URL+"/controller?action=disable", ""); code != http.StatusOK || !strings.Contains(body, "controller disabled") {
		t.Errorf("disable: %d %q", code, body)
	}

	// The controller's metric families are registered on /metrics.
	_, metrics := do(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, want := range []string{"arbor_adapt_enabled", "arbor_adapt_decisions_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Error paths.
	if code, _ := do(t, http.MethodPost, ts.URL+"/controller?action=explode", ""); code != http.StatusBadRequest {
		t.Error("bad action accepted")
	}
	if code, _ := do(t, http.MethodPost, ts.URL+"/controller", ""); code != http.StatusBadRequest {
		t.Error("missing action accepted")
	}
	if code, _ := do(t, http.MethodGet, ts.URL+"/controller?last=nope", ""); code != http.StatusBadRequest {
		t.Error("bad last accepted")
	}
	if code, _ := do(t, http.MethodDelete, ts.URL+"/controller", ""); code != http.StatusMethodNotAllowed {
		t.Error("DELETE on /controller")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-spec", "garbage"}); err == nil {
		t.Error("bad spec accepted")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestServerWithWAL(t *testing.T) {
	dir := t.TempDir()
	tr, err := tree.ParseSpec("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(tr, cluster.Config{Seed: 1, WALDir: dir}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	do(t, http.MethodPut, ts.URL+"/put?key=k", "durable")
	ts.Close()
	srv.Close()

	// Restarting on the same WAL directory recovers the data.
	srv2, err := newServer(tr, cluster.Config{Seed: 2, WALDir: dir}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	code, body := do(t, http.MethodGet, ts2.URL+"/get?key=k", "")
	if code != http.StatusOK || body != "durable" {
		t.Errorf("get after WAL restart: %d %q", code, body)
	}
}

// TestServerReconfigureRestart: a daemon restarted with its original -spec
// on the -wal-dir of a reconfigured one comes back on the new tree, with
// the data it held.
func TestServerReconfigureRestart(t *testing.T) {
	dir := t.TempDir()
	tr, err := tree.ParseSpec("1-2-3")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(tr, cluster.Config{Seed: 1, WALDir: dir}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	do(t, http.MethodPut, ts.URL+"/put?key=k", "v1")
	if code, body := fault(t, ts, "reconfigure=1-1-4"); code != http.StatusOK {
		t.Fatalf("reconfigure: %d %s", code, body)
	}
	do(t, http.MethodPut, ts.URL+"/put?key=k", "v2")
	ts.Close()
	srv.Close()

	srv2, err := newServer(tr, cluster.Config{Seed: 2, WALDir: dir}, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	if _, ctl := do(t, http.MethodGet, ts2.URL+"/controller", ""); !strings.Contains(ctl, `"currentSpec":"1-1-4"`) {
		t.Errorf("restart came back off the recorded tree 1-1-4: %s", ctl)
	}
	if code, body := do(t, http.MethodGet, ts2.URL+"/get?key=k", ""); code != http.StatusOK || body != "v2" {
		t.Errorf("get after restart: %d %q, want v2", code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, http.MethodPut, ts.URL+"/put?key=m", "v")
	do(t, http.MethodGet, ts.URL+"/get?key=m", "")

	req, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer req.Body.Close()
	if req.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", req.StatusCode)
	}
	if ct := req.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	b, err := io.ReadAll(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)

	// Every line must be a comment or a well-formed sample, and no series
	// may appear twice.
	seen := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in /metrics output")
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment line %q", line)
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		if _, err := strconv.ParseFloat(line[idx+1:], 64); err != nil {
			t.Fatalf("sample line %q: bad value: %v", line, err)
		}
		key := line[:idx]
		if seen[key] {
			t.Fatalf("duplicate series %q", key)
		}
		seen[key] = true
	}

	for _, want := range []string{
		`arbor_replica_serves_total{site="1",type="read"}`,       // per-site serve counters
		`arbor_cluster_level_serves{level="0",kind="read"}`,      // per-level load gauges
		`arbor_client_op_duration_seconds_bucket{op="read",le=`,  // read latency histogram
		`arbor_client_op_duration_seconds_bucket{op="write",le=`, // write latency histogram
		`arbor_cluster_load{op="write",source="empirical"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		do(t, http.MethodPut, ts.URL+"/put?key=t"+strconv.Itoa(i), "v")
	}

	code, body := do(t, http.MethodGet, ts.URL+"/traces?last=3", "")
	if code != http.StatusOK {
		t.Fatalf("/traces: %d %s", code, body)
	}
	var traces []obs.OpTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	for i, tr := range traces {
		if tr.Op != "write" || tr.Outcome != obs.OutcomeOK {
			t.Errorf("trace %d: %+v", i, tr)
		}
		if tr.Key != "t"+strconv.Itoa(2+i) {
			t.Errorf("trace %d: key %q, want t%d (last N, oldest first)", i, tr.Key, 2+i)
		}
		if len(tr.Attempts) == 0 {
			t.Errorf("trace %d has no level attempts", i)
		}
	}

	if code, _ := do(t, http.MethodGet, ts.URL+"/traces?last=nope", ""); code != http.StatusBadRequest {
		t.Errorf("bad last value: code %d, want 400", code)
	}
}

func TestPprofEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := do(t, http.MethodGet, ts.URL+"/debug/pprof/goroutine?debug=1", "")
	if code != http.StatusOK || !strings.Contains(body, "goroutine profile:") {
		t.Errorf("/debug/pprof/goroutine: %d %q", code, body)
	}
}

// metricValue returns the value of the series name (labels included, as
// the exposition writes them) in a Prometheus text exposition, failing the
// test when it is absent.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestMetricsTCPFrames: the daemon's replicas and serving client talk over
// TCP, so a PUT and a GET raise the frame counters on /metrics, the client
// has dialed, and nothing is dropped or evicted.
func TestMetricsTCPFrames(t *testing.T) {
	_, ts := newTestServer(t)
	_, before := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code, body := do(t, http.MethodPut, ts.URL+"/put?key=f", "v"); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	if code, body := do(t, http.MethodGet, ts.URL+"/get?key=f", ""); code != http.StatusOK {
		t.Fatalf("get: %d %s", code, body)
	}
	_, after := do(t, http.MethodGet, ts.URL+"/metrics", "")
	for _, name := range []string{"arbor_network_frames_out_total", "arbor_network_frames_in_total"} {
		if b, a := metricValue(t, before, name), metricValue(t, after, name); a <= b {
			t.Errorf("%s did not rise across a PUT and a GET: %v → %v", name, b, a)
		}
	}
	for _, name := range []string{"arbor_network_decode_drops_total", "arbor_network_inbox_drops_total", "arbor_network_evictions_total"} {
		if v := metricValue(t, after, name); v != 0 {
			t.Errorf("%s = %v, want 0", name, v)
		}
	}
	if v := metricValue(t, after, "arbor_network_dials_total"); v == 0 {
		t.Error("arbor_network_dials_total = 0 after a PUT and a GET")
	}
}
