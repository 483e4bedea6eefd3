// Package wire is a fixture miniature of the real wire package: a closed
// message set with tag constants, encode/decode switches and golden
// vectors, with deliberate holes for the analyzer to find.
package wire

import _ "encoding/gob" // want `encoding/gob opens a second serialization path`

type PingReq struct{ ReqID uint64 }

type PingResp struct{ ReqID uint64 }

// OrphanReq has a tag but no encode case, no decode case and no golden
// vector — the three ways a message drifts out of the closed set.
type OrphanReq struct{ ReqID uint64 }

const (
	tagPingReq byte = iota + 1
	tagPingResp  // want `message PingResp has no golden vector`
	tagOrphanReq // want `message OrphanReq has no encode case` `tag tagOrphanReq has no decode case` `message OrphanReq has no golden vector`
	tagGhostReq  // want `tag tagGhostReq has no message type GhostReq`
)

const tagDup byte = 2 // want `duplicate tag value 2: tagDup collides with tagPingResp` `tag tagDup has no message type Dup`

// Encode appends one message's encoding.
func Encode(dst []byte, payload any) []byte {
	switch m := payload.(type) {
	case PingReq:
		dst = append(dst, tagPingReq)
		dst = append(dst, byte(m.ReqID))
	case PingResp:
		dst = append(dst, tagPingResp)
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
	}
	return nil
}
