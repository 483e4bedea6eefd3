package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/tree"
)

// scrape returns the daemon's /metrics exposition.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	code, body := do(t, http.MethodGet, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", code, body)
	}
	return body
}

// fault posts one schedule event to /fault.
func fault(t *testing.T, ts *httptest.Server, actions string) (int, string) {
	t.Helper()
	return do(t, http.MethodPost, ts.URL+"/fault?do="+url.QueryEscape(actions), "")
}

// mustFault posts one schedule event to /fault and fails unless it applied.
func mustFault(t *testing.T, ts *httptest.Server, actions string) {
	t.Helper()
	if code, body := fault(t, ts, actions); code != http.StatusOK {
		t.Fatalf("fault %s: %d %s", actions, code, body)
	}
}

// records counts the whole records in a site's journal under dir.
func records(t *testing.T, dir string, site int) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("site-%d.wal", site)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; len(data) >= 4; n++ {
		size := 4 + int(binary.BigEndian.Uint32(data))
		if len(data) < size {
			break
		}
		data = data[size:]
	}
	return n
}

// health is the site's arbor_replica_health gauge: 0 down, 1 catching up,
// 2 live.
func health(t *testing.T, metrics, site string) float64 {
	t.Helper()
	return metricValue(t, metrics, `arbor_replica_health{site="`+site+`"}`)
}

// awaitSync waits for every catch-up pass of the server's cluster to settle.
func awaitSync(t *testing.T, srv *server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.cluster.AwaitSync(ctx); err != nil {
		t.Fatalf("await sync: %v", err)
	}
}

// TestServerFaultTable sends every verb ParseSchedule documents through
// POST /fault to a daemon on loopback TCP and reads its effect off
// /metrics; it also holds the endpoint's refusals: 409 for the faults that
// exist only on the in-memory network and 404 for an unknown site, each
// with nothing applied, 400 for anything that is not exactly one event,
// 405 for GET.
// Every case starts from a fresh 1-3-5 daemon (levels 1–3 and 4–8) holding
// k = v; one with a journals check journals to files under -wal-dir, has
// had k written three times, and has its -wal-dir checked last.
func TestServerFaultTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		setup    []string
		do       string
		code     int
		body     string // a substring the response must hold, if set
		check    func(t *testing.T, srv *server, ts *httptest.Server)
		journals func(t *testing.T, dir string)
	}{
		{name: "crash", do: "crash=2", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if h := health(t, scrape(t, ts), "2"); h != 0 {
					t.Errorf("crashed site 2 has health %v, want 0", h)
				}
			}},
		{name: "recover", setup: []string{"crash=1,2,3", "crash=4"}, do: "recover=4", code: http.StatusOK,
			check: func(t *testing.T, srv *server, ts *httptest.Server) {
				// With level 1–3 down the catch-up has no source: it stays running.
				m := scrape(t, ts)
				if h, a := health(t, m, "4"), metricValue(t, m, `arbor_replica_sync_active{site="4"}`); h != 1 || a != 1 {
					t.Errorf("site 4 catching up without a source: health %v, sync active %v; want 1 and 1", h, a)
				}
				mustFault(t, ts, "recover=1,2,3")
				awaitSync(t, srv)
				m = scrape(t, ts)
				if h, a := health(t, m, "4"), metricValue(t, m, `arbor_replica_sync_active{site="4"}`); h != 2 || a != 0 {
					t.Errorf("site 4 after its sources came back: health %v, sync active %v; want 2 and 0", h, a)
				}
				if n := metricValue(t, m, `arbor_replica_sync_completions_total{site="4"}`); n != 1 {
					t.Errorf("site 4 completed %v catch-ups, want 1", n)
				}
			}},
		{name: "recoverall", setup: []string{"crash=2,5"}, do: "recoverall", code: http.StatusOK,
			check: func(t *testing.T, srv *server, ts *httptest.Server) {
				awaitSync(t, srv)
				m := scrape(t, ts)
				for _, s := range []string{"2", "5"} {
					if h, n := health(t, m, s), metricValue(t, m, `arbor_replica_sync_completions_total{site="`+s+`"}`); h != 2 || n != 1 {
						t.Errorf("site %s: health %v after %v catch-ups, want 2 after 1", s, h, n)
					}
				}
			}},
		// The catch-up verbs of old are refused with a pointer to recover,
		// and nothing comes back up.
		{name: "recoversync", setup: []string{"crash=4"}, do: "recoversync=4", code: http.StatusBadRequest, body: "recover=<sites>",
			check: func(t *testing.T, srv *server, ts *httptest.Server) {
				if h := health(t, scrape(t, ts), "4"); h != 0 || !srv.cluster.Replica(4).Crashed() {
					t.Errorf("site 4 has health %v after a refused recoversync, want 0", h)
				}
			}},
		{name: "recoverallsync", setup: []string{"crash=4", "crash=5"}, do: "recoverallsync", code: http.StatusBadRequest, body: "recoverall",
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				m := scrape(t, ts)
				for _, s := range []string{"4", "5"} {
					if h := health(t, m, s); h != 0 {
						t.Errorf("site %s has health %v after a refused recoverallsync, want 0", s, h)
					}
				}
			}},
		{name: "partition", do: "crash=1+partition=1,2/3,4", code: http.StatusConflict,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if h := health(t, scrape(t, ts), "1"); h != 2 {
					t.Errorf("site 1 has health %v after a refused partition event, want 2", h)
				}
			}},
		{name: "heal", do: "heal", code: http.StatusConflict},
		{name: "restart", setup: []string{"crash=2"}, do: "restart", code: http.StatusOK,
			check: func(t *testing.T, srv *server, ts *httptest.Server) {
				awaitSync(t, srv)
				m := scrape(t, ts)
				for s := 1; s <= 8; s++ {
					if h := health(t, m, strconv.Itoa(s)); h != 2 {
						t.Errorf("site %d has health %v after restart, want 2", s, h)
					}
				}
				if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
					t.Errorf("get after restart: %d %q", code, body)
				}
			}},
		{name: "saturate", do: "saturate=1,2,3", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if code, _ := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusServiceUnavailable {
					t.Errorf("get with level 1–3 saturated: %d, want 503", code)
				}
				m := scrape(t, ts)
				for _, s := range []string{"1", "2", "3"} {
					if n := metricValue(t, m, `arbor_replica_sheds_total{site="`+s+`",reason="refused"}`); n == 0 {
						t.Errorf("saturated site %s shed nothing", s)
					}
				}
			}},
		{name: "unsaturate", setup: []string{"saturate=1,2,3"}, do: "unsaturate=1,2,3", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
					t.Errorf("get after unsaturate: %d %q", code, body)
				}
			}},
		{name: "slowsite", do: "slowsite=1:40ms,2:40ms,3:40ms", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				const sum = `arbor_client_op_duration_seconds_sum{op="read"}`
				before := metricValue(t, scrape(t, ts), sum)
				if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
					t.Fatalf("get with level 1–3 slowed: %d %q", code, body)
				}
				if d := metricValue(t, scrape(t, ts), sum) - before; d < 0.04 {
					t.Errorf("a read with every level 1–3 site 40ms slow took %.3fs, want at least 0.04s", d)
				}
			}},
		{name: "drain", do: "drain=2", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if h := health(t, scrape(t, ts), "2"); h != 0 {
					t.Errorf("drained site 2 has health %v, want 0", h)
				}
			}},
		{name: "checkpoint", setup: []string{"crash=4"}, do: "checkpoint", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
					t.Errorf("get after checkpoint: %d %q", code, body)
				}
			},
			journals: func(t *testing.T, dir string) {
				// Every journal that is up holds one record per key — k —
				// or none; crashed site 4's is left as it was.
				compacted := 0
				for s := 1; s <= 8; s++ {
					switch n := records(t, dir, s); {
					case s == 4:
					case n == 1:
						compacted++
					case n != 0:
						t.Errorf("site %d: %d records after checkpoint, want at most 1", s, n)
					}
				}
				if compacted < 3 {
					t.Errorf("%d journals hold k after checkpoint, want a whole level's", compacted)
				}
			}},
		{name: "reconfigure", do: "reconfigure=1-2-2-4", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
					t.Errorf("get after reshape: %d %q", code, body)
				}
				// The metrics and the controller's state show the new shape.
				if v := metricValue(t, scrape(t, ts), `arbor_cluster_level_size{level="2"}`); v != 4 {
					t.Errorf("level 2 of 1-2-2-4 has %v sites on /metrics, want 4", v)
				}
				if _, ctl := do(t, http.MethodGet, ts.URL+"/controller", ""); !strings.Contains(ctl, `"currentSpec":"1-2-2-4"`) {
					t.Errorf("controller tree not updated: %s", ctl)
				}
			}},
		{name: "reconfigure bad spec", do: "reconfigure=bad", code: http.StatusBadRequest},
		{name: "reconfigure replica count", do: "reconfigure=1-3-4", code: http.StatusConflict, body: "replica count",
			check: func(t *testing.T, srv *server, _ *httptest.Server) {
				if spec := srv.cluster.Tree().Spec(); spec != "1-3-5" {
					t.Errorf("tree %s after a refused reconfigure, want 1-3-5", spec)
				}
			}},
		{name: "workload", do: "workload=calm", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				m := scrape(t, ts)
				for s := 1; s <= 8; s++ {
					if h := health(t, m, strconv.Itoa(s)); h != 2 {
						t.Errorf("site %d has health %v after a workload marker, want 2", s, h)
					}
				}
			}},
		{name: "several actions", do: "drain=1+saturate=2,3", code: http.StatusOK,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if code, _ := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusServiceUnavailable {
					t.Errorf("get with site 1 drained and 2, 3 saturated: %d, want 503", code)
				}
				if h := health(t, scrape(t, ts), "1"); h != 0 {
					t.Errorf("drained site 1 has health %v, want 0", h)
				}
			}},
		{name: "unknown verb", do: "explode=1", code: http.StatusBadRequest},
		{name: "empty", do: "", code: http.StatusBadRequest},
		{name: "bad site", do: "crash=x", code: http.StatusBadRequest},
		{name: "two events", do: "crash=1;1s:crash=2", code: http.StatusBadRequest,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if h := health(t, scrape(t, ts), "1"); h != 2 {
					t.Errorf("site 1 has health %v after a refused schedule, want 2", h)
				}
			}},
		{name: "unknown site", do: "crash=1+drain=99", code: http.StatusNotFound,
			check: func(t *testing.T, _ *server, ts *httptest.Server) {
				if h := health(t, scrape(t, ts), "1"); h != 2 {
					t.Errorf("site 1 has health %v after an event naming site 99, want 2", h)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, puts := cluster.Config{Seed: 1}, []string{"v"}
			if tc.journals != nil {
				cfg.WALDir, puts = t.TempDir(), []string{"v1", "v2", "v"}
			}
			srv, ts := newConfiguredServer(t, cfg)
			for _, v := range puts {
				if code, body := do(t, http.MethodPut, ts.URL+"/put?key=k", v); code != http.StatusOK {
					t.Fatalf("put: %d %s", code, body)
				}
			}
			for _, s := range tc.setup {
				mustFault(t, ts, s)
			}
			code, body := fault(t, ts, tc.do)
			if code != tc.code {
				t.Fatalf("fault %s: %d %s, want %d", tc.do, code, body, tc.code)
			}
			if !strings.Contains(body, tc.body) {
				t.Errorf("fault %s: body %q does not name %q", tc.do, body, tc.body)
			}
			if tc.check != nil {
				tc.check(t, srv, ts)
			}
			if tc.journals != nil {
				tc.journals(t, cfg.WALDir)
			}
		})
	}
	_, ts := newTestServer(t)
	if code, body := do(t, http.MethodGet, ts.URL+"/fault?do=crash=1", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /fault: %d %s, want 405", code, body)
	}
}

// TestStats reads off /metrics and /controller every fact the daemon's
// stats reported: the tree, its size and levels, the client's operations
// and contacts, the network counters, each site's serves and the Eq 3.2
// loads next to the measured ones.
func TestStats(t *testing.T) {
	_, ts := newTestServer(t)
	do(t, http.MethodPut, ts.URL+"/put?key=k", "v")
	do(t, http.MethodGet, ts.URL+"/get?key=k", "")
	_, ctl := do(t, http.MethodGet, ts.URL+"/controller", "")
	if !strings.Contains(ctl, `"currentSpec":"1-3-5"`) {
		t.Errorf("controller state names no 1-3-5 tree: %s", ctl)
	}
	m := scrape(t, ts)
	for series, want := range map[string]float64{
		`arbor_cluster_level_size{level="0"}`:                      3,
		`arbor_cluster_level_size{level="1"}`:                      5,
		`arbor_client_ops_total{op="read",outcome="ok"}`:           1,
		`arbor_client_ops_total{op="write",outcome="ok"}`:          1,
		`arbor_client_ops_total{op="read",outcome="not_found"}`:    0,
		`arbor_client_ops_total{op="read",outcome="unavailable"}`:  0,
		`arbor_client_ops_total{op="write",outcome="unavailable"}`: 0,
		`arbor_client_read_refetches_total`:                        0,
		`arbor_cluster_load{op="read",source="theory"}`:            1.0 / 3,
		`arbor_network_evictions_total`:                            0,
	} {
		if v := metricValue(t, m, series); v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
	if strings.Contains(m, `arbor_cluster_level_size{level="2"}`) {
		t.Error("1-3-5 has a third physical level on /metrics")
	}
	// A read contacts one site per level, a write discovers the version on
	// every level and prepares one.
	if v := metricValue(t, m, "arbor_client_read_contacts_total"); v < 2 {
		t.Errorf("arbor_client_read_contacts_total = %v after a read, want at least 2", v)
	}
	if v := metricValue(t, m, "arbor_client_write_contacts_total"); v < 5 {
		t.Errorf("arbor_client_write_contacts_total = %v after a write, want at least 5", v)
	}
	for _, series := range []string{
		"arbor_network_dials_total",
		`arbor_cluster_load{op="read",source="empirical"}`,
		`arbor_cluster_load{op="write",source="empirical"}`,
		`arbor_cluster_load{op="write",source="theory"}`,
	} {
		if v := metricValue(t, m, series); v <= 0 {
			t.Errorf("%s = %v, want > 0", series, v)
		}
	}
	var serves float64
	for s := 1; s <= 8; s++ {
		site := strconv.Itoa(s)
		health(t, m, site)
		for _, typ := range []string{"read", "prepare", "version_write"} {
			serves += metricValue(t, m, `arbor_replica_serves_total{site="`+site+`",type="`+typ+`"}`)
		}
	}
	if serves == 0 {
		t.Error("no site served a read, a prepare or a version probe")
	}
}

// TestCrashRecoverCycle: with all of level 1–3 crashed reads answer 503,
// and recoverall brings the value back from the journals.
func TestCrashRecoverCycle(t *testing.T) {
	srv, ts := newTestServer(t)
	do(t, http.MethodPut, ts.URL+"/put?key=k", "v")
	mustFault(t, ts, "crash=1,2,3")
	if code, _ := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusServiceUnavailable {
		t.Errorf("get with level down: %d", code)
	}
	mustFault(t, ts, "recoverall")
	awaitSync(t, srv)
	if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
		t.Errorf("get after recovery: %d %q", code, body)
	}
	for _, q := range []string{"recover=99", "crash=99"} {
		if code, _ := fault(t, ts, q); code != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", q, code)
		}
	}
	for _, q := range []string{"crash=x", "recover=x"} {
		if code, _ := fault(t, ts, q); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", q, code)
		}
	}
}

// TestDrainEndpoint drains a site over /fault, checks it reads as down on
// /metrics while the service keeps answering, and recovers it.
func TestDrainEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if code, body := do(t, http.MethodPut, ts.URL+"/put?key=k", "v"); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	if code, body := fault(t, ts, "drain=99"); code != http.StatusNotFound {
		t.Fatalf("drain of unknown site: %d %s, want 404", code, body)
	}
	code, body := fault(t, ts, "drain=2")
	if code != http.StatusOK || !strings.Contains(body, "drain=2") {
		t.Fatalf("drain: %d %s", code, body)
	}
	m := scrape(t, ts)
	for s := 1; s <= 8; s++ {
		want := 2.0
		if s == 2 {
			want = 0
		}
		if h := health(t, m, strconv.Itoa(s)); h != want {
			t.Errorf("site %d health %v after draining site 2, want %v", s, h, want)
		}
	}
	// The protocol serves around the drained site, acked data intact.
	if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
		t.Fatalf("get during drain: %d %q", code, body)
	}
	mustFault(t, ts, "recover=2")
	if code, body := do(t, http.MethodGet, ts.URL+"/get?key=k", ""); code != http.StatusOK || body != "v" {
		t.Fatalf("get after recover: %d %q", code, body)
	}
}

// TestHealthEndpoint walks a site through the full lifecycle — live, down,
// catching up after recover, live again — and reads each state, and what
// the catch-up pulled, off /metrics.
func TestHealthEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	m := scrape(t, ts)
	for s := 1; s <= 8; s++ {
		if h := health(t, m, strconv.Itoa(s)); h != 2 {
			t.Fatalf("fresh cluster: site %d health %v, want 2", s, h)
		}
	}
	mustFault(t, ts, "crash=4")
	if h := health(t, scrape(t, ts), "4"); h != 0 {
		t.Fatalf("site 4 health %v after crash, want 0", h)
	}
	// Make the crashed site miss a write, then rejoin through catch-up.
	if code, body := do(t, http.MethodPut, ts.URL+"/put?key=k", "v"); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	mustFault(t, ts, "recover=4")
	awaitSync(t, srv)
	m = scrape(t, ts)
	if h := health(t, m, "4"); h != 2 {
		t.Fatalf("site 4 health %v after catch-up, want 2", h)
	}
	for series, want := range map[string]float64{
		`arbor_replica_sync_active{site="4"}`:            0,
		`arbor_replica_sync_completions_total{site="4"}`: 1,
		`arbor_replica_sync_keys_pulled_total{site="4"}`: 1,
		`arbor_replica_sync_retries_total{site="4"}`:     0,
	} {
		if v := metricValue(t, m, series); v != want {
			t.Errorf("%s = %v, want %v", series, v, want)
		}
	}
}

// TestServerRecoverRejectsBadSync: a recovery that does not parse is a 400,
// and recovers nothing.
func TestServerRecoverRejectsBadSync(t *testing.T) {
	srv, ts := newTestServer(t)
	mustFault(t, ts, "crash=4")
	for _, q := range []string{"recoversnc=4", "recover=4x", "recover"} {
		if code, body := fault(t, ts, q); code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", q, code, body)
		}
	}
	if !srv.cluster.Replica(4).Crashed() {
		t.Fatal("site 4 recovered although the recovery did not parse")
	}
	mustFault(t, ts, "recover=4")
	awaitSync(t, srv)
	if h := health(t, scrape(t, ts), "4"); h != 2 {
		t.Errorf("site 4 health %v after recover, want 2", h)
	}
}

// TestServerScrapesDuringDrain: no administrative action holds up a
// scrape. On 1-1-4 every read contacts site 1, the one site of level 0.
// With site 1 slowed by 2s, a /get is in flight there when a drain of
// site 1 starts, and the drain waits for it; meanwhile /metrics and
// /controller each answer within 500ms. Then the drain answers 200.
func TestServerScrapesDuringDrain(t *testing.T) {
	tr, err := tree.ParseSpec("1-1-4")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(tr, cluster.Config{Seed: 1}, 64, []client.Option{client.WithTimeout(10 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	if code, body := do(t, http.MethodPut, ts.URL+"/put?key=k", "v"); code != http.StatusOK {
		t.Fatalf("put: %d %s", code, body)
	}
	mustFault(t, ts, "slowsite=1:2s")

	// send runs a request off the test goroutine; its status arrives on
	// the channel (0 when the request failed).
	send := func(method, url string) <-chan int {
		out := make(chan int, 1)
		go func() {
			req, _ := http.NewRequest(method, url, nil) // the test server's own URL parses
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				out <- 0
				return
			}
			resp.Body.Close()
			out <- resp.StatusCode
		}()
		return out
	}
	// await polls cond every millisecond for up to two seconds.
	await := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	site1 := srv.cluster.Replica(1)
	before := site1.Stats().Messages
	read := send(http.MethodGet, ts.URL+"/get?key=k")
	await("the read to reach site 1", func() bool { return site1.Stats().Messages > before })

	drain := send(http.MethodPost, ts.URL+"/fault?do=drain=1")
	// A draining site sheds every new read: a probe read shed at site 1
	// shows the drain has begun.
	probe, err := srv.cluster.NewClient(client.WithTimeout(50 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	await("the drain to begin", func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, _ = probe.Read(ctx, "k")
		return site1.Stats().Sheds > 0
	})

	for _, path := range []string{"/metrics", "/controller"} {
		start := time.Now()
		if code, body := do(t, http.MethodGet, ts.URL+path, ""); code != http.StatusOK {
			t.Errorf("GET %s during the drain: %d %s", path, code, body)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Errorf("GET %s took %v during the drain, want under 500ms", path, d)
		}
	}
	select {
	case code := <-drain:
		t.Fatalf("the drain answered %d before the scrapes ended: the test showed nothing", code)
	default:
	}
	if code := <-drain; code != http.StatusOK {
		t.Errorf("drain=1 answered %d, want 200", code)
	}
	if code := <-read; code != http.StatusOK {
		t.Errorf("the slowed /get answered %d, want 200", code)
	}
}
