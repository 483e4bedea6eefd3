package transport

import "arbor/internal/wire"

// Conn is one attachment point on a message transport — the interface
// replicas and clients speak. The in-memory Endpoint and the TCPEndpoint
// both implement it.
type Conn interface {
	// Addr returns the endpoint's address.
	Addr() Addr
	// Send transmits a payload to another endpoint. A nil error means the
	// message was accepted by the transport, not that it will arrive.
	Send(to Addr, payload any) error
	// Recv returns the endpoint's delivery channel.
	Recv() <-chan Message
}

// Transport constructs connections: the one shape cluster, sim and the
// daemons build endpoints through, whether the substrate is the in-memory
// network or real TCP sockets. Both methods take the LOCAL address the
// endpoint will answer to — the transport model is addressed actors, not
// point-to-point sockets.
type Transport interface {
	// Listen attaches a server endpoint at addr: peers can reach it by
	// address without prior contact. Replicas listen.
	Listen(addr Addr) (Conn, error)
	// Dial attaches a client endpoint at addr: it can reach listeners,
	// and replies flow back over the connections it initiates, but peers
	// cannot open contact with it. Clients dial.
	Dial(addr Addr) (Conn, error)
	// Close shuts the transport and every endpoint down.
	Close()
}

// Send sends payload from c to the endpoint at to, st written into it if it
// is a request; rpc and replica send through nothing else. It never retains
// payload, so a payload literal can live on the sender's stack: a
// *TCPEndpoint encodes it in place, and any other Conn, which may keep what
// it is given, gets a stamped copy (wire.Stamped).
func Send(c Conn, to Addr, payload any, st wire.Stamp) error {
	if e, ok := c.(*TCPEndpoint); ok {
		return e.send(to, payload, st)
	}
	cp, err := wire.Stamped(payload, st)
	if err != nil {
		return err
	}
	return c.Send(to, cp)
}

var (
	_ Conn      = (*Endpoint)(nil)
	_ Transport = (*Network)(nil)
	_ Transport = (*TCPNetwork)(nil)
)
