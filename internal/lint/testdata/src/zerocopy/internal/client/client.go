// Package client is a fixture miniature of the real client package:
// ReadResult.Value is in the analyzer's cross-package registry, and
// Snapshot.Keys is discovered through its read-only doc marker.
package client

type ReadResult struct {
	// Value aliases the replica's stored buffer and must be treated as
	// read-only.
	Value []byte
}

type Snapshot struct {
	// Keys is shared with the engine's cache; read-only.
	Keys []string
}

func badIndexWrite(r ReadResult) {
	r.Value[0] = 0 // want `write into read-only field Value`
}

func badAppend(r ReadResult) []byte {
	return append(r.Value, 1) // want `append to read-only field Value`
}

func badCopyInto(r ReadResult, src []byte) {
	copy(r.Value, src) // want `copy into read-only field Value`
}

func badAliasWrite(s Snapshot) {
	ks := s.Keys
	ks[0] = "" // want `write into read-only field Keys`
}

func badSliceAppend(r ReadResult) []byte {
	return append(r.Value[:2], 9) // want `append to read-only field Value`
}

func goodCopyOut(r ReadResult) []byte {
	out := make([]byte, len(r.Value))
	copy(out, r.Value)
	return out
}

func goodRead(r ReadResult) byte {
	if len(r.Value) == 0 {
		return 0
	}
	return r.Value[0]
}

func goodCloneThenMutate(r ReadResult) []byte {
	out := append([]byte(nil), r.Value...)
	out[0] = 1
	return out
}
