// Package replica exercises the obswire analyzer over replica-initiated
// traffic: the anti-entropy syncer makes replicas originate wire calls of
// their own, so their exported sync/health entry points carry the same
// instrumentation obligation as client operations.
package replica

import (
	"internal/obs"
	"internal/transport"
)

// Replica serves protocol requests and drives anti-entropy catch-up.
type Replica struct {
	ep     transport.Conn
	pulled *obs.Counter
	sheds  *obs.Counter
}

// StartSync drives a catch-up pass; instrumented transitively via syncPage.
func (r *Replica) StartSync(peer transport.Addr) error {
	return r.syncPage(peer)
}

// syncPage is unexported: not an entry point, but it taints callers with
// wire traffic and satisfies them with its counter.
func (r *Replica) syncPage(peer transport.Addr) error {
	r.pulled.Inc()
	return r.ep.Send(peer, "digest")
}

// Probe sends a health probe with no instrumentation on its path.
func (r *Replica) Probe(peer transport.Addr) error { // want `exported entry point Probe sends replica traffic but records no metrics or trace`
	return r.ep.Send(peer, "ping")
}

// Reply answers through the package-level sender with no instrumentation:
// transport.Send is wire traffic as much as a Conn's Send.
func (r *Replica) Reply(peer transport.Addr) error { // want `exported entry point Reply sends replica traffic but records no metrics or trace`
	return transport.Send(r.ep, peer, "resp", 0)
}

// ReplyCounted is Reply with its counter.
func (r *Replica) ReplyCounted(peer transport.Addr) error {
	r.sheds.Inc()
	return transport.Send(r.ep, peer, "resp", 0)
}

// Health reads local state only; nothing to instrument.
func (r *Replica) Health() int { return 0 }

// Shed answers an over-admission-limit request with a typed overload
// reply; the shed counter satisfies the instrumentation obligation.
func (r *Replica) Shed(peer transport.Addr) error {
	r.sheds.Inc()
	return r.ep.Send(peer, "overloaded")
}

// Drain hands off in-flight state to a peer before going down, with no
// instrumentation on its path.
func (r *Replica) Drain(peer transport.Addr) error { // want `exported entry point Drain sends replica traffic but records no metrics or trace`
	return r.ep.Send(peer, "handoff")
}
