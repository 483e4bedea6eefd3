// Package replica implements a replica site of the simulated distributed
// system: a versioned key-value store addressed over the transport network,
// acting as a read/version server and as a two-phase-commit participant for
// quorum writes. Sites are fail-stop with stable storage, the journal: a
// crash drops all traffic and every byte of memory, and recovery replays
// the journal and then catches up from the other levels (the paper's
// transient, detectable failures).
package replica

import "arbor/internal/wire"

// The protocol's message vocabulary lives in internal/wire (the leaf
// package the codecs are defined against); these aliases keep replica the
// natural import for protocol code while guaranteeing the types the event
// loop switches on are the very types the codecs enumerate.

// Timestamp orders writes: higher version wins, and among equal versions
// the LOWER site identifier wins (§3.2.1 of the paper).
type Timestamp = wire.Timestamp

// Request/response payloads exchanged between clients and replicas; see
// the definitions in internal/wire for field semantics.
type (
	VersionReq     = wire.VersionReq
	VersionResp    = wire.VersionResp
	ReadReq        = wire.ReadReq
	ReadResp       = wire.ReadResp
	PrepareReq     = wire.PrepareReq
	PrepareResp    = wire.PrepareResp
	CommitReq      = wire.CommitReq
	CommitResp     = wire.CommitResp
	AbortReq       = wire.AbortReq
	AbortResp      = wire.AbortResp
	PingReq        = wire.PingReq
	PingResp       = wire.PingResp
	OverloadedResp = wire.OverloadedResp
)

// Anti-entropy catch-up messages; see internal/wire.
type (
	SyncDigestReq  = wire.SyncDigestReq
	DigestEntry    = wire.DigestEntry
	SyncDigestResp = wire.SyncDigestResp
	SyncFetchReq   = wire.SyncFetchReq
	SyncItem       = wire.SyncItem
	SyncFetchResp  = wire.SyncFetchResp
)
