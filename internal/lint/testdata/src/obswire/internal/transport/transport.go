// Package transport is a stand-in for the real message transport. Like rpc
// it is outside the obswire scope: it is the last hop, and its callers
// count their sends.
package transport

// Addr identifies a replica site.
type Addr int

// Conn is a message endpoint.
type Conn interface {
	Send(to Addr, payload any) error
}

// Send is the package's one sender, shaped like the real transport.Send: it
// forwards to the Conn.
func Send(c Conn, to Addr, payload any, stamp uint64) error {
	return c.Send(to, payload)
}
