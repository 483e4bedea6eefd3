// Package client exercises the obswire analyzer: exported entry points
// that send replica traffic must (transitively) record observability.
package client

import (
	"internal/obs"
	"internal/rpc"
	"internal/transport"
)

// Client executes operations against replicas.
type Client struct {
	caller *rpc.Caller
	reads  *obs.Counter
}

// Read is instrumented directly.
func (c *Client) Read(to transport.Addr) error {
	c.reads.Inc()
	return c.caller.Call(to, "read")
}

// Ping sends traffic with no instrumentation anywhere on its path.
func (c *Client) Ping(to transport.Addr) error { // want `exported entry point Ping sends replica traffic but records no metrics or trace`
	return c.probe(to)
}

// probe is unexported: not an entry point itself, but it taints callers
// with wire traffic.
func (c *Client) probe(to transport.Addr) error {
	return c.caller.Call(to, "ping")
}

// Write is instrumented transitively through writeLocked.
func (c *Client) Write(to transport.Addr) error {
	return c.writeLocked(to)
}

func (c *Client) writeLocked(to transport.Addr) error {
	c.reads.Inc()
	return c.caller.Call(to, "write")
}

// Commit sends through the caller's Start, as the quorum engine does, with
// no instrumentation anywhere on its path.
func (c *Client) Commit(to transport.Addr) error { // want `exported entry point Commit sends replica traffic but records no metrics or trace`
	_, err := c.caller.Start(to, "commit")
	return err
}

// Metrics never touches the wire; no instrumentation needed.
func (c *Client) Metrics() int { return 0 }
