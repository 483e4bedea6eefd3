// Package transport is a stand-in for the real message transport — and,
// since the scope extension, a test subject in its own right: its exported
// send paths carry the same instrumentation obligation as the layers above.
package transport

import "internal/obs"

// Addr identifies a replica site.
type Addr int

// Conn is a message endpoint.
type Conn interface {
	Send(to Addr, payload any) error
}

// Send is the package's one sender, shaped like the real transport.Send: it
// forwards to the Conn, so it touches the wire itself, and is exempted as
// the last hop whose callers carry the instrumentation.
//
//lint:ignore obswire the last hop; callers count their sends
func Send(c Conn, to Addr, payload any, stamp uint64) error {
	return c.Send(to, payload)
}

// Endpoint fans messages out over a connection.
type Endpoint struct {
	c     Conn
	sends *obs.Counter
}

// Broadcast touches the wire with no instrumentation.
func (e *Endpoint) Broadcast(peers []Addr, payload any) error { // want `exported entry point Broadcast sends replica traffic but records no metrics or trace`
	for _, p := range peers {
		if err := e.c.Send(p, payload); err != nil {
			return err
		}
	}
	return nil
}

// BroadcastCounted is the instrumented variant.
func (e *Endpoint) BroadcastCounted(peers []Addr, payload any) error {
	for _, p := range peers {
		e.sends.Inc()
		if err := e.c.Send(p, payload); err != nil {
			return err
		}
	}
	return nil
}
