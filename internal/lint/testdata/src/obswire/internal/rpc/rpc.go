// Package rpc is a stand-in for the real rpc package. It is outside the
// obswire scope — it keeps no instruments, and its callers book every
// contact — so its uninstrumented senders are not findings; what calls them
// in scope is.
package rpc

import "internal/transport"

// Caller issues calls over a transport connection.
type Caller struct {
	ep transport.Conn
}

// Start sends a request and returns without waiting for its reply, the way
// the quorum engine sends every read, prepare and commit.
func (c *Caller) Start(to transport.Addr, req any) (uint64, error) {
	return 1, c.ep.Send(to, req)
}

// Call sends a request and waits for its reply.
func (c *Caller) Call(to transport.Addr, req any) error {
	return c.ep.Send(to, req)
}

// Send transmits a payload without awaiting a reply.
func (c *Caller) Send(to transport.Addr, payload any) error {
	return c.ep.Send(to, payload)
}
