package transport

import (
	"sync"

	"arbor/internal/wire"
)

// Handler consumes one served message, in a holder that is valid only for
// the call: the transport refills it with the next message, so a handler
// copies out or boxes (m.Box) what it keeps past the call. Over TCP the
// message's key is a view of the frame (wire.Msg.Decode), valid only for the
// call too: a copy that keeps it is Owned first (m.Own, or wire.Clone where
// m.Borrowed()); m.Box owns it itself. Every other string and byte slice
// inside is the handler's to keep.
type Handler func(from Addr, m *wire.Msg)

// Serve makes h the consumer of every message arriving at c until the
// returned stop is called; it is the one way replicas and callers receive.
// Who runs h follows from the endpoint's type (DESIGN.md §4k): a
// *TCPEndpoint's read loops call h themselves, right after decoding a frame
// into the holder they borrow with their read buffer — one connection's
// messages in frame order, different connections concurrently, a blocked
// handler stalling only its own — and any other Conn is pumped by one
// goroutine receiving from c.Recv() and filling one holder from each boxed
// payload (a payload outside the message set is dropped). Messages that
// reached the endpoint before Serve are delivered first. Once stop returns,
// h is not running and is never called again; later arrivals are readable
// on c.Recv(). stop may be called twice, but not from h.
func Serve(c Conn, h Handler) (stop func()) {
	var once sync.Once
	if e, ok := c.(*TCPEndpoint); ok {
		e.setHandler(h)
		return func() { once.Do(func() { e.setHandler(nil) }) }
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var m wire.Msg
		for {
			select {
			case <-quit:
				return
			case msg := <-c.Recv():
				h.serveBoxed(msg, &m)
			}
		}
	}()
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// setHandler swaps the consumer with the read loops locked out: removing it
// waits out every call in flight; installing one hands it the inbox's
// backlog first, if there is an inbox, so a connection's queued frames reach
// h before its next. Only deliver fills the inbox, under the shared lock, so
// an inbox Recv makes meanwhile is empty.
func (e *TCPEndpoint) setHandler(h Handler) {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	e.handler = h
	in := e.in.Load()
	var m wire.Msg
	for h != nil && in != nil {
		select {
		case msg := <-*in:
			h.serveBoxed(msg, &m)
		default:
			return
		}
	}
}

// serveBoxed hands h a boxed message, through holder m.
func (h Handler) serveBoxed(msg Message, m *wire.Msg) {
	if m.Set(msg.Payload) == nil {
		h(msg.From, m)
	}
}

// deliver decodes a frame body for whoever consumes it: the Serve handler,
// on the calling read loop, gets it in holder m, its keys views of body;
// the inbox gets it owned and boxed (wire.Decode), since a Recv keeps it
// past any call. Read loops share the lock they hold across h, so the
// consumer cannot change between the choice and the hand-off.
func (e *TCPEndpoint) deliver(from, to Addr, body []byte, m *wire.Msg) error {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	if e.handler != nil {
		if err := m.Decode(body); err != nil {
			return err
		}
		e.handler(from, m)
		return nil
	}
	payload, err := wire.Decode(body)
	if err != nil {
		return err
	}
	select {
	case e.inbox() <- Message{From: from, To: to, Payload: payload}:
	default:
		e.inboxDrops.Add(1) // full and unserved: drop, like the in-memory transport
	}
	return nil
}
