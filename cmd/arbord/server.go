package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/tree"
)

// server hosts the cluster and implements the HTTP API.
type server struct {
	mux *http.ServeMux

	// dataDir, when set, is where /checkpoint persists replica stores.
	dataDir string

	// obs carries the metric registry behind /metrics and the trace
	// recorder behind /traces.
	obs *obs.Observer

	// ctl is the adaptation controller behind /controller. It is always
	// created (so the endpoint and the arbor_adapt_* metrics exist) but
	// starts disabled unless -adapt is given; its evaluation loop runs in
	// stepController until stop is called.
	ctl  *adapt.Controller
	stop context.CancelFunc

	mu      sync.Mutex // serializes administrative actions
	cluster *cluster.Cluster
	cli     *client.Client
}

var _ http.Handler = (*server)(nil)

// newServer builds the cluster over loopback TCP and its HTTP routes.
// traceCap bounds the in-memory operation trace ring served by /traces;
// cliOpts configure the serving client (tests shorten its timeout).
func newServer(t *tree.Tree, cfg cluster.Config, traceCap int, cliOpts []client.Option) (*server, error) {
	o := obs.NewObserver(traceCap)
	cfg.TCP, cfg.Observer = true, o
	c, err := cluster.New(t, cfg)
	if err != nil {
		return nil, err
	}
	cli, err := c.NewClient(cliOpts...)
	if err != nil {
		c.Close()
		return nil, err
	}
	// Wall clock injected: the daemon's cooldown and journal timestamps
	// should read in operator time, unlike the harness's logical clock.
	actl := adapt.DefaultConfig()
	actl.Clock = time.Now
	ctl, err := adapt.New(c, actl)
	if err != nil {
		c.Close()
		return nil, err
	}
	s := &server{mux: http.NewServeMux(), obs: o, cluster: c, cli: cli, ctl: ctl}
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	go s.stepController(ctx, adapt.DefaultInterval)
	s.mux.HandleFunc("/get", s.handleGet)
	s.mux.HandleFunc("/put", s.handlePut)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/health", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/crash", s.handleCrash)
	s.mux.HandleFunc("/drain", s.handleDrain)
	s.mux.HandleFunc("/recover", s.handleRecover)
	s.mux.HandleFunc("/reconfigure", s.handleReconfigure)
	s.mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("/controller", s.handleController)
	// Profiles, mounted by name (the package's init knows only DefaultServeMux).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index) // and every named profile: goroutine, heap, …
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// stepController drives the adaptation loop. Steps take the admin lock so a
// controller-driven migration serializes with /reconfigure, /stats and
// /metrics exactly like an operator-driven one — no scrape ever observes
// the cluster mid-swap, whoever initiated the swap.
func (s *server) stepController(ctx context.Context, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.mu.Lock()
			s.ctl.Step()
			s.mu.Unlock()
		}
	}
}

// ServeHTTP dispatches to the API routes.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the controller loop and shuts the cluster down.
func (s *server) Close() {
	s.stop()
	s.cluster.Close()
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	res, err := s.cli.Read(r.Context(), key)
	switch {
	case errors.Is(err, client.ErrNotFound):
		http.Error(w, "not found", http.StatusNotFound)
		return
	case errors.Is(err, client.ErrReadUnavailable):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Arbor-Version", res.TS.String())
	w.Header().Set("X-Arbor-Contacts", strconv.Itoa(res.Contacts))
	_, _ = w.Write(res.Value)
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPut && r.Method != http.MethodPost {
		http.Error(w, "use PUT", http.StatusMethodNotAllowed)
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	value, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.cli.Write(r.Context(), key, value)
	code, outcome := http.StatusOK, "ok"
	switch {
	case errors.Is(err, client.ErrWriteUnavailable):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, client.ErrInDoubt):
		code, outcome = http.StatusAccepted, "in doubt" // committed, acks incomplete
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Arbor-Version", res.TS.String())
	w.WriteHeader(code)
	fmt.Fprintf(w, "%s level=%d contacts=%d\n", outcome, res.Level, res.Contacts)
}

// statsResponse is the /stats JSON document.
type statsResponse struct {
	Tree          string              `json:"tree"`
	N             int                 `json:"replicas"`
	Levels        int                 `json:"physicalLevels"`
	Client        client.Metrics      `json:"client"`
	Network       networkStats        `json:"network"`
	Participation []participationStat `json:"participation"`
	Load          loadStats           `json:"load"`
}

// networkStats sums the TCP counters of every replica and client endpoint.
type networkStats struct {
	FramesOut   uint64 `json:"framesOut"`
	FramesIn    uint64 `json:"framesIn"`
	InboxDrops  uint64 `json:"inboxDrops"`
	DecodeDrops uint64 `json:"decodeDrops"`
	Dials       uint64 `json:"dials"`
	Evictions   uint64 `json:"evictions"`
}

type participationStat struct {
	Site            int    `json:"site"`
	Crashed         bool   `json:"crashed"`
	ReadServes      uint64 `json:"readServes"`
	WriteServes     uint64 `json:"writeServes"`
	DiscoveryServes uint64 `json:"discoveryServes"`
}

// loadStats reports the Eq 3.2 closed-form loads of the current tree next
// to the measured values.
type loadStats struct {
	TheoryRead     float64 `json:"theoryRead"`
	TheoryWrite    float64 `json:"theoryWrite"`
	EmpiricalRead  float64 `json:"empiricalRead"`
	EmpiricalWrite float64 `json:"empiricalWrite"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	// The admin lock pairs with /reconfigure: a scrape never observes the
	// cluster mid-swap, and the snapshot itself pins one (tree, protocol)
	// pair for the whole response.
	s.mu.Lock()
	snap := s.cluster.StatsSnapshot()
	s.mu.Unlock()
	check := snap.TheoryCheck()
	resp := statsResponse{
		Tree:   snap.Tree.Spec(),
		N:      snap.Tree.N(),
		Levels: snap.Proto.NumPhysicalLevels(),
		Client: s.cli.Metrics(),
		Network: networkStats{
			FramesOut:   snap.Network.TCP.FramesOut,
			FramesIn:    snap.Network.TCP.FramesIn,
			InboxDrops:  snap.Network.TCP.InboxDrops,
			DecodeDrops: snap.Network.TCP.DecodeDrops,
			Dials:       snap.Network.TCP.Dials,
			Evictions:   snap.Network.TCP.Evictions,
		},
		Load: loadStats{
			TheoryRead:     check.TheoryReadLoad,
			TheoryWrite:    check.TheoryWriteLoad,
			EmpiricalRead:  check.EmpiricalReadLoad,
			EmpiricalWrite: check.EmpiricalWriteLoad,
		},
	}
	for _, sl := range snap.Load.Sites {
		resp.Participation = append(resp.Participation, participationStat{
			Site:            int(sl.Site),
			Crashed:         s.cluster.Replica(sl.Site).Crashed(),
			ReadServes:      sl.ReadServes,
			WriteServes:     sl.WriteServes,
			DiscoveryServes: sl.DiscoveryServes,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// healthSite is one site's entry in the /health JSON document. The sync
// fields report anti-entropy catch-up progress and survive into the live
// state, so an operator can see what the last recovery cost.
type healthSite struct {
	Site        int    `json:"site"`
	Health      string `json:"health"`
	SyncActive  bool   `json:"syncActive,omitempty"`
	KeysPulled  uint64 `json:"keysPulled,omitempty"`
	SyncRetries uint64 `json:"syncRetries,omitempty"`
	Catchups    uint64 `json:"catchups,omitempty"`
}

// healthResponse is the /health JSON document.
type healthResponse struct {
	Live       int          `json:"live"`
	CatchingUp int          `json:"catchingUp"`
	Down       int          `json:"down"`
	Sites      []healthSite `json:"sites"`
}

// handleHealth reports each replica's lifecycle state (live, catching-up or
// down) and its catch-up progress.
func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	healths := s.cluster.Healths()
	resp := healthResponse{Sites: make([]healthSite, 0, len(healths))}
	for site, h := range healths {
		hs := healthSite{Site: int(site), Health: h.String()}
		p := s.cluster.Replica(site).SyncProgress()
		hs.SyncActive = p.Active
		hs.KeysPulled = p.KeysPulled
		hs.SyncRetries = p.Retries
		hs.Catchups = p.Completions
		switch h {
		case replica.HealthDown:
			resp.Down++
		case replica.HealthCatchingUp:
			resp.CatchingUp++
		default:
			resp.Live++
		}
		resp.Sites = append(resp.Sites, hs)
	}
	s.mu.Unlock()
	sort.Slice(resp.Sites, func(i, j int) bool { return resp.Sites[i].Site < resp.Sites[j].Site })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// handleMetrics serves the registry in Prometheus text exposition format.
// Holding the admin lock means collection callbacks (which snapshot the
// cluster) never interleave with a reconfiguration.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.Registry.WritePrometheus(w)
}

// handleTraces returns the most recent operation traces, oldest first.
// ?last=N bounds the count (default 50).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 50
	if arg := r.URL.Query().Get("last"); arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil || v < 0 {
			http.Error(w, "bad last", http.StatusBadRequest)
			return
		}
		n = v
	}
	traces := s.obs.Traces.Last(n)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(traces)
}

func (s *server) handleCrash(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	site, err := strconv.Atoi(r.URL.Query().Get("site"))
	if err != nil {
		http.Error(w, "bad site", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cluster.Crash(tree.SiteID(site)); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fmt.Fprintf(w, "crashed site %d\n", site)
}

// handleDrain gracefully takes a replica out of rotation: the site stops
// admitting new work (gated requests shed with a typed overload reply),
// finishes its in-flight 2PC participations, then goes down — zero
// acknowledged writes lost. Bring it back with /recover (plain or
// sync=true for the catch-up path). The drain is bounded: if in-flight
// work does not quiesce in time the site stays in the draining state and
// the request reports a timeout.
func (s *server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	site, err := strconv.Atoi(r.URL.Query().Get("site"))
	if err != nil {
		http.Error(w, "bad site", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	if err := s.cluster.Drain(ctx, tree.SiteID(site)); err != nil {
		code := http.StatusNotFound
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			code = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), code)
		return
	}
	fmt.Fprintf(w, "drained site %d\n", site)
}

func (s *server) handleRecover(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	arg := r.URL.Query().Get("site")
	// sync=true rejoins through the anti-entropy catch-up path: the replica
	// serves 2PC immediately but is excluded from reads until it has pulled
	// every version it missed. Watch /health for the transition to live. A
	// value that does not parse is refused rather than read as false, which
	// would skip the catch-up the caller asked for.
	withSync := false
	if v := r.URL.Query().Get("sync"); v != "" {
		var err error
		if withSync, err = strconv.ParseBool(v); err != nil {
			http.Error(w, "bad sync", http.StatusBadRequest)
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if arg == "all" {
		if withSync {
			s.cluster.RecoverAllWithSync()
			fmt.Fprintln(w, "recovering all via catch-up")
		} else {
			s.cluster.RecoverAll()
			fmt.Fprintln(w, "recovered all")
		}
		return
	}
	site, err := strconv.Atoi(arg)
	if err != nil {
		http.Error(w, "bad site", http.StatusBadRequest)
		return
	}
	if withSync {
		if err := s.cluster.RecoverWithSync(tree.SiteID(site)); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, "recovering site %d via catch-up\n", site)
		return
	}
	if err := s.cluster.Recover(tree.SiteID(site)); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fmt.Fprintf(w, "recovered site %d\n", site)
}

func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dataDir == "" {
		http.Error(w, "no -data-dir configured", http.StatusConflict)
		return
	}
	if err := s.cluster.Checkpoint(s.dataDir); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintf(w, "checkpointed to %s\n", s.dataDir)
}

func (s *server) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	spec := r.URL.Query().Get("spec")
	t, err := tree.ParseSpec(spec)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cluster.Reconfigure(t); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "reconfigured to %s\n", t.Spec())
}

// controllerResponse is the /controller JSON document: the controller's
// knob-and-progress snapshot plus its recent decision journal, oldest first.
type controllerResponse struct {
	State   adapt.State      `json:"state"`
	Journal []adapt.Decision `json:"journal"`
}

// handleController inspects or toggles the adaptation controller. GET
// returns state plus the last ?last=N journal entries (default 50);
// POST ?action=enable|disable flips it, journaling the transition.
func (s *server) handleController(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		n := 50
		if arg := r.URL.Query().Get("last"); arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 0 {
				http.Error(w, "bad last", http.StatusBadRequest)
				return
			}
			n = v
		}
		s.mu.Lock()
		resp := controllerResponse{State: s.ctl.State(), Journal: s.ctl.Journal(n)}
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	case http.MethodPost:
		var on bool
		switch action := r.URL.Query().Get("action"); action {
		case "enable":
			on = true
		case "disable":
			on = false
		default:
			http.Error(w, "action must be enable or disable", http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		changed := s.ctl.SetEnabled(on)
		s.mu.Unlock()
		state := "disabled"
		if on {
			state = "enabled"
		}
		if !changed {
			fmt.Fprintf(w, "controller already %s\n", state)
			return
		}
		fmt.Fprintf(w, "controller %s\n", state)
	default:
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
	}
}
