// Package wire is a fixture miniature of the real wire package: a closed
// message set with tag constants, encode/decode switches, a stamping switch
// and golden vectors, with deliberate holes for the analyzer to find.
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

const (
	tagPingReq      byte = iota + 1
	tagPingResp          // want `message PingResp has no golden vector`
	tagOrphanReq         // want `message OrphanReq has no encode case` `tag tagOrphanReq has no decode case` `message OrphanReq has no golden vector` `request OrphanReq is not stamped in the stamping switch on line 42`
	tagGhostReq          // want `tag tagGhostReq has no message type GhostReq`
	tagUnstampedReq      // want `request UnstampedReq is not stamped in the stamping switch on line 42`
)

const tagDup byte = 2 // want `duplicate tag value 2: tagDup collides with tagPingResp` `tag tagDup has no message type Dup`

// Encode appends one message's encoding, st written into a request.
func Encode(dst []byte, payload any, st Stamp) []byte {
	switch m := payload.(type) {
	case PingReq:
		st.apply(&m.ReqID)
		dst = append(dst, tagPingReq)
		dst = append(dst, byte(m.ReqID))
	case PingResp:
		dst = append(dst, tagPingResp)
		dst = append(dst, byte(m.ReqID))
	case UnstampedReq:
		dst = append(dst, tagUnstampedReq)
		dst = append(dst, byte(m.ReqID))
	}
	return dst
}

// Decode parses one encoded message.
func Decode(data []byte) any {
	if len(data) < 2 {
		return nil
	}
	switch data[0] {
	case tagPingReq:
		return PingReq{ReqID: uint64(data[1])}
	case tagPingResp:
		return PingResp{ReqID: uint64(data[1])}
	case tagUnstampedReq:
		return UnstampedReq{ReqID: uint64(data[1])}
	}
	return nil
}
