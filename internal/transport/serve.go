package transport

import "sync"

// Serve makes h the consumer of every message arriving at c until the
// returned stop is called; it is the one way replicas and callers receive.
// Who runs h follows from the endpoint's type (DESIGN.md §4k): a
// *TCPEndpoint's read loops call h themselves, right after decoding a frame
// — one connection's messages in frame order, different connections
// concurrently, a blocked handler stalling only its own — and any other
// Conn is pumped by one goroutine receiving from c.Recv(). Messages that
// reached the endpoint before Serve are delivered first. Once stop returns,
// h is not running and is never called again; later arrivals are readable
// on c.Recv(). stop may be called twice, but not from h.
func Serve(c Conn, h func(Message)) (stop func()) {
	var once sync.Once
	if e, ok := c.(*TCPEndpoint); ok {
		e.setHandler(h)
		return func() { once.Do(func() { e.setHandler(nil) }) }
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			case m := <-c.Recv():
				h(m)
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
func (e *TCPEndpoint) setHandler(h func(Message)) {
	e.serveMu.Lock()
	defer e.serveMu.Unlock()
	e.handler = h
	in := e.in.Load()
	for h != nil && in != nil {
		select {
		case m := <-*in:
			h(m)
		default:
			return
		}
	}
}

// deliver hands a decoded message to the Serve handler, on the calling read
// loop, or else to the inbox. Read loops share the lock they hold across h.
func (e *TCPEndpoint) deliver(m Message) {
	e.serveMu.RLock()
	defer e.serveMu.RUnlock()
	if e.handler != nil {
		e.handler(m)
		return
	}
	select {
	case e.inbox() <- m:
	default:
		e.inboxDrops.Add(1) // full and unserved: drop, like the in-memory transport
	}
}
