// Package wire is a fixture miniature of the real wire package: a closed
// message set with tag constants, encode/decode switches, a stamping switch,
// holders and golden vectors, with deliberate holes for the analyzer to find.
package wire

import _ "encoding/gob" // want `encoding/gob opens a second serialization path`

// Stamp is written into every request as it is encoded.
type Stamp struct{ ReqID uint64 }

func (st Stamp) apply(reqID *uint64) {
	if st.ReqID != 0 {
		*reqID = st.ReqID
	}
}

type PingReq struct{ ReqID uint64 }

type PingResp struct{ ReqID uint64 }

// OrphanReq has a tag but no encode case, no decode case and no golden
// vector — the three ways a message drifts out of the closed set — and so
// no stamping case either.
type OrphanReq struct{ ReqID uint64 }

// UnstampedReq is encoded, decoded and pinned, but its encode case forgets
// the stamp: it would go out without its request ID.
type UnstampedReq struct{ ReqID uint64 }

// Tag names a message type.
type Tag byte

const (
	TagPingReq      Tag = iota + 1
	TagPingResp         // want `message PingResp has no golden vector`
	TagOrphanReq        // want `message OrphanReq has no encode case` `tag TagOrphanReq has no decode case` `message OrphanReq has no golden vector` `request OrphanReq is not stamped in the stamping switch on line 88` `message OrphanReq has no field in any holder`
	TagGhostReq         // want `tag TagGhostReq has no message type GhostReq`
	TagUnstampedReq     // want `request UnstampedReq is not stamped in the stamping switch on line 88`
)

const TagDup Tag = 2 // want `duplicate tag value 2: TagDup collides with TagPingResp` `tag TagDup has no message type Dup`

// Reply holds an answer; Msg, which embeds it, holds any message — but
// OrphanReq has no field in it.
type Reply struct {
	Tag      Tag
	PingResp PingResp
}

type Msg struct {
	Reply
	PingReq      PingReq
	UnstampedReq UnstampedReq
}

// Box forgets UnstampedReq: a holder holding one boxes as nil.
func (m *Msg) Box() any {
	switch m.Tag { // want `switch in Msg.Box has no case for UnstampedReq`
	case TagPingReq:
		return m.PingReq
	case TagPingResp:
		return m.PingResp
	}
	return nil
}

// Set forgets PingResp.
func (m *Msg) Set(payload any) {
	switch p := payload.(type) { // want `switch in Msg.Set has no case for PingResp`
	case PingReq:
		m.Tag, m.PingReq = TagPingReq, p
	case UnstampedReq:
		m.Tag, m.UnstampedReq = TagUnstampedReq, p
	}
}

// ReqID covers everything a Reply holds.
func (r *Reply) ReqID() uint64 {
	switch r.Tag {
	case TagPingResp:
		return r.PingResp.ReqID
	}
	return 0
}

// Encode appends one message's encoding, st written into a request.
func Encode(dst []byte, payload any, st Stamp) []byte {
	switch m := payload.(type) {
	case PingReq:
		st.apply(&m.ReqID)
		dst = append(dst, byte(TagPingReq))
		dst = append(dst, byte(m.ReqID))
	case PingResp:
		dst = append(dst, byte(TagPingResp))
		dst = append(dst, byte(m.ReqID))
	case UnstampedReq:
		dst = append(dst, byte(TagUnstampedReq))
		dst = append(dst, byte(m.ReqID))
	}
	return dst
}

// Decode parses one encoded message.
func Decode(data []byte) any {
	if len(data) < 2 {
		return nil
	}
	switch Tag(data[0]) {
	case TagPingReq:
		return PingReq{ReqID: uint64(data[1])}
	case TagPingResp:
		return PingResp{ReqID: uint64(data[1])}
	case TagUnstampedReq:
		return UnstampedReq{ReqID: uint64(data[1])}
	}
	return nil
}
