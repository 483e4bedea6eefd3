package wire

import "fmt"

// Codec serializes protocol messages for a byte-stream transport. A codec
// is identified by its name and a wire-format version byte; endpoints
// exchange both during connection setup and refuse to talk across a
// mismatch, so a format change is a loud handshake failure instead of a
// silent mis-decode.
//
// Implementations must be stateless and safe for concurrent use: one codec
// value serves every connection of a transport.
type Codec interface {
	// Name identifies the codec family ("binary").
	Name() string
	// Version is the codec's wire-format version byte. Bump it on any
	// incompatible layout change.
	Version() byte
	// Encode appends the message's encoding to dst and returns the
	// extended slice, like append. Unknown payload types are an error —
	// the message set is closed.
	Encode(dst []byte, payload any) ([]byte, error)
	// Decode parses one encoded message. The returned payload must never
	// alias data: the TCP read loop passes a view into a read buffer that
	// the next frame overwrites, on its connection or on whichever borrows
	// the buffer from the shared pool next, and replicas store decoded
	// values as they are — each an allocation of exactly its size.
	Decode(data []byte) (any, error)
}

// MaxPooledBuf is the largest encode buffer a pool takes back: frames and
// journal records reach tens of MiB, and a pool never shrinks what it holds.
const MaxPooledBuf = 1 << 20

// Message type tags used by the binary codec (and by any future compact
// codec). Tag 0 is reserved so a zeroed buffer never decodes.
const (
	tagVersionReq byte = iota + 1
	tagVersionResp
	tagReadReq
	tagReadResp
	tagPrepareReq
	tagPrepareResp
	tagCommitReq
	tagCommitResp
	tagAbortReq
	tagAbortResp
	tagPingReq
	tagPingResp
	tagSyncDigestReq
	tagSyncDigestResp
	tagSyncFetchReq
	tagSyncFetchResp
	tagOverloadedResp
)

// ByName resolves a codec by its registered name — the form the -codec CLI
// flags take.
func ByName(name string) (Codec, error) {
	switch name {
	case "", "binary":
		return Binary(), nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (have binary)", name)
	}
}
