package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"arbor/internal/adapt"
	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/obs"
	"arbor/internal/tree"
)

// server hosts the cluster and implements the HTTP API.
type server struct {
	mux *http.ServeMux

	// obs carries the metric registry behind /metrics and the trace
	// recorder behind /traces.
	obs *obs.Observer

	// ctl is the adaptation controller behind /controller. It is always
	// created (so the endpoint and the arbor_adapt_* metrics exist) but
	// starts disabled unless -adapt is given; its Run loop goes on until
	// stop is called.
	ctl  *adapt.Controller
	stop context.CancelFunc

	// cluster serializes the administrative actions itself: /fault and the
	// controller's migrations both go through cluster.ApplyEvent.
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
	go ctl.Run(ctx)
	s.mux.HandleFunc("/get", s.handleGet)
	s.mux.HandleFunc("/put", s.handlePut)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/fault", s.handleFault)
	s.mux.HandleFunc("/controller", s.handleController)
	// Profiles, mounted by name (the package's init knows only DefaultServeMux).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index) // and every named profile: goroutine, heap, …
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
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

// handleMetrics serves the registry in Prometheus text exposition format.
// It waits for no administrative action, so a scrape during a migration
// shows its catch-up passes (arbor_replica_sync_active); the cluster's
// collect callback still reads the tree and protocol as one pair.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
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

// handleFault applies one fault event, written in the schedule syntax of
// cluster.ParseSchedule (?do=crash=2, ?do=recover=4,
// ?do=drain=2+saturate=3, ?do=reconfigure=1-4-4, …), through
// cluster.ApplyEvent: the one path the simulator's schedules and the
// controller's migrations take too, so an event waits out any other in
// progress. Drains and migrations are bounded: past the bound the request
// answers 504. Partitions exist only on the in-memory network, so
// partition and heal answer 409, as does a refused reconfigure.
func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	do := r.URL.Query().Get("do")
	sched, err := cluster.ParseSchedule("0s:" + do)
	if err == nil && len(sched) != 1 {
		err = fmt.Errorf("do=%q is not one event", do)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	err = s.cluster.ApplyEvent(ctx, sched[0])
	switch {
	case errors.Is(err, cluster.ErrUnknownSite):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	case err != nil:
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		fmt.Fprintf(w, "applied %s\n", do)
	}
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
		var resp controllerResponse
		resp.State, resp.Journal = s.ctl.Report(n)
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
		changed := s.ctl.SetEnabled(on)
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
