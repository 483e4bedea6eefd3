package rpc

import "arbor/internal/wire"

// Codec is the versioned wire codec the rpc stack is serialized with —
// defined in internal/wire (the leaf package both rpc and transport build
// on) and re-exported here as the API surface callers configure. The
// facade forwards it as arbor.Codec.
type Codec = wire.Codec

// Request is a payload carrying a caller-allocated request ID; every
// protocol request type implements it. Call stamps the ID right before
// sending.
type Request = wire.Request

// BinaryCodec returns the default hand-rolled, length-prefixed binary
// codec.
func BinaryCodec() Codec { return wire.Binary() }
