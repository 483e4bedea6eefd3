// Package arbor is a Go implementation of the arbitrary tree-structured
// replica control protocol (Bahsoun, Basmadjian, Guerraoui — ICDCS 2008),
// together with the classic replica control protocols it is evaluated
// against and a goroutine-based replica cluster simulator to run it on.
//
// The protocol organizes n replicas into a tree of logical and physical
// nodes. A read quorum takes one physical node from every physical level; a
// write quorum takes all physical nodes of one physical level. Shifting
// replicas between levels tunes the protocol continuously between a
// ROWA-like read-optimized configuration and a write-optimized one, without
// changing the protocol itself.
//
// # Quick start
//
//	t, err := arbor.ParseTree("1-3-5") // logical root, levels of 3 and 5
//	a := arbor.Analyze(t)              // costs, loads, availabilities
//
//	c, err := arbor.NewCluster(t, arbor.ClusterConfig{Seed: 1})
//	defer c.Close()
//	cli, err := c.NewClient()
//	_, err = cli.Write(ctx, "config", []byte("v1"))
//	r, err := cli.Read(ctx, "config")
//
// The subpackages remain available for advanced use: internal/tree (tree
// construction), internal/core (protocol analysis and quorum systems),
// internal/baseline (ROWA, Majority, Grid, FPP, Tree Quorum, HQC),
// internal/config (the paper's six configurations and the workload
// advisor), internal/cluster (the simulator) and internal/figures (the
// paper's tables and figures).
package arbor

import (
	"arbor/internal/adapt"
	"arbor/internal/client"
	"arbor/internal/cluster"
	"arbor/internal/config"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/rpc"
	"arbor/internal/tree"
)

// Tree is a replica tree of logical and physical nodes.
type Tree = tree.Tree

// SiteID identifies a replica site.
type SiteID = tree.SiteID

// ParseTree parses the paper's compact tree notation, e.g. "1-3-5" for a
// logical root over physical levels of three and five replicas. See
// internal/tree.ParseSpec for the full grammar.
func ParseTree(spec string) (*Tree, error) { return tree.ParseSpec(spec) }

// NewTree builds a tree with a logical root and the given physical-level
// sizes.
func NewTree(levelSizes ...int) (*Tree, error) { return tree.PhysicalLevelSizes(levelSizes...) }

// Algorithm1 builds the paper's balanced "ARBITRARY" configuration for n
// replicas (√n physical levels; write load 1/√n, read load 1/4).
func Algorithm1(n int) (*Tree, error) { return tree.Algorithm1(n) }

// MostlyRead builds the read-optimized single-level configuration
// (ROWA-like: read cost 1, read load 1/n).
func MostlyRead(n int) (*Tree, error) { return tree.MostlyRead(n) }

// MostlyWrite builds the write-optimized configuration for odd n
// ((n−1)/2 levels; write cost ≈ 2, write load 2/(n−1)).
func MostlyWrite(n int) (*Tree, error) { return tree.MostlyWrite(n) }

// ValidateTree checks the paper's Assumption 3.1 (non-decreasing physical
// level sizes below the root).
func ValidateTree(t *Tree) error { return tree.ValidateAssumption31(t) }

// Analysis carries a tree's closed-form protocol metrics: communication
// costs, optimal system loads and availability functions.
type Analysis = core.Analysis

// Analyze computes the protocol's closed-form metrics for a tree.
func Analyze(t *Tree) Analysis { return core.Analyze(t) }

// Advice is the configuration advisor's recommendation.
type Advice = config.Advice

// Objective selects what the advisor minimizes.
type Objective = config.Objective

// Advisor objectives.
const (
	// MinimizeLoad minimizes the workload-weighted expected system load.
	MinimizeLoad = config.MinimizeLoad
	// MinimizeCost minimizes the workload-weighted communication cost.
	MinimizeCost = config.MinimizeCost
	// MinimizeLoadCostProduct balances the two.
	MinimizeLoadCostProduct = config.MinimizeLoadCostProduct
)

// Advise picks a tree shape for n replicas given a read fraction and a
// per-replica availability p — the paper's "spectrum" tuning, mechanized.
func Advise(n int, p, readFraction float64, obj Objective) (Advice, error) {
	return config.Advise(n, p, readFraction, obj)
}

// Cluster is a running replica system: over the in-memory network, with
// injectable latency, loss and partitions, one goroutine serves each
// replica; over loopback TCP (ClusterConfig.TCP) the connections' read
// loops serve them. Cluster.ApplyEvent is its one way to inject faults and
// reshape the tree.
type Cluster = cluster.Cluster

// Event is one administrative action, or several joined, for
// Cluster.ApplyEvent: crashes, recoveries, partitions, overload faults,
// drains, a reconfiguration to another tree, a checkpoint. Its String form
// is the schedule syntax of arborsim and arbord's /fault.
type Event = cluster.Event

// Client executes protocol reads and writes against a cluster.
type Client = client.Client

// ReadResult is the outcome of a read operation.
type ReadResult = client.ReadResult

// WriteResult is the outcome of a write operation.
type WriteResult = client.WriteResult

// Txn is a client-side transaction: buffered writes installed atomically
// (all-or-nothing) by one two-phase commit across a write quorum, with
// repeatable reads. Create with Client.NewTxn.
type Txn = client.Txn

// ClusterConfig configures NewCluster: the seed, the simulated network's
// latency, jitter and its shape, per-link delay and loss (its Net field),
// the clients' timeout, the replicas' lock expiry, a write-ahead journal
// directory, an Observer, each replica's in-flight bound, and TCP, which
// runs the cluster over loopback sockets instead of the simulated network.
// Zero durations keep the defaults; the seed is taken as given.
type ClusterConfig = cluster.Config

// Observer bundles a metrics registry and an operation trace recorder.
// Attach one to a cluster through ClusterConfig.Observer; read it with
// Observer.Registry.WritePrometheus and Observer.Traces.Last.
type Observer = obs.Observer

// OpTrace is one recorded operation: every level attempted, every site
// contacted, retries, timeouts and 2PC phase outcomes with timestamps.
type OpTrace = obs.OpTrace

// DefaultTraceCapacity is the trace ring size NewObserver uses when given
// a non-positive capacity.
const DefaultTraceCapacity = obs.DefaultTraceCapacity

// NewObserver creates an Observer whose trace ring keeps the last
// traceCapacity operations (DefaultTraceCapacity when <= 0).
func NewObserver(traceCapacity int) *Observer { return obs.NewObserver(traceCapacity) }

// Client operation errors, re-exported for errors.Is matching.
var (
	// ErrReadUnavailable: some physical level had no responsive replica.
	ErrReadUnavailable = client.ErrReadUnavailable
	// ErrWriteUnavailable: no physical level could be fully prepared.
	ErrWriteUnavailable = client.ErrWriteUnavailable
	// ErrNotFound: the quorum assembled but the key was never written.
	ErrNotFound = client.ErrNotFound
	// ErrInDoubt: a write was committed at the protocol level but not
	// every quorum member acknowledged in time.
	ErrInDoubt = client.ErrInDoubt
	// ErrTimeout: a replica call's reply deadline expired (the failure
	// detector firing). Unavailability errors wrap the underlying call
	// failures, so errors.Is(err, ErrTimeout) distinguishes "replicas
	// timed out" from other causes.
	ErrTimeout = rpc.ErrTimeout
	// ErrOverloaded: a replica's admission gate shed the request with a
	// typed refusal instead of serving it. A clean failure — never
	// in-doubt — carrying an advisory retry-after hint the client's
	// backoff honors.
	ErrOverloaded = client.ErrOverloaded
)

// ClientOption configures a client created by Cluster.NewClient.
type ClientOption = client.Option

// Client construction options, re-exported from internal/client. The
// cluster's own timeout/seed/observer are the defaults; these override
// them per client.
var (
	// WithTimeout sets the client's per-request reply deadline (its
	// failure detector).
	WithTimeout = client.WithTimeout
	// WithClientSeed fixes the client's quorum-selection randomness.
	WithClientSeed = client.WithSeed
	// WithHedgeDelay sets how long a level probe may be outstanding
	// before a hedged backup probe goes to the next candidate site.
	WithHedgeDelay = client.WithHedgeDelay
	// WithHedging enables or disables hedged backup probes (default on).
	WithHedging = client.WithHedging
)

// Controller is the adaptation controller: it samples the cluster's
// observed read/write mix, per-site participation and the live Eq 3.2
// theory-vs-empirical gap, and reshapes the tree through the advisor when
// the workload drifts — journaling the evidence behind every decision.
// Create with NewController; start the loop with Controller.Run or drive
// Controller.Step from a deterministic harness.
type Controller = adapt.Controller

// AdaptConfig configures a Controller: its interval, window, level-delta
// damping, cooldown, clock (nil: logical, advanced one interval per Step)
// and initial enabled state. Its fields are taken as given, so start from
// DefaultAdaptConfig. The availability assumption, the objective and the
// degradation guard are the adapt package's constants.
type AdaptConfig = adapt.Config

// DefaultAdaptConfig returns the controller defaults: disabled, on a
// logical clock, a 1s interval, a window of 5, a level delta of 2 and a
// 30s cooldown.
func DefaultAdaptConfig() AdaptConfig { return adapt.DefaultConfig() }

// Decision is one adaptation journal entry: the full evidence snapshot
// behind one act-or-hold verdict.
type Decision = adapt.Decision

// ControllerState is a point-in-time summary of a Controller.
type ControllerState = adapt.State

// NewController builds an adaptation controller bound to the cluster.
func NewController(c *Cluster, cfg AdaptConfig) (*Controller, error) {
	return adapt.New(c, cfg)
}

// NewCluster builds and starts a simulated cluster for the tree.
func NewCluster(t *Tree, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(t, cfg)
}
