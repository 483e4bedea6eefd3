// Package a smuggles a second serialization path in through encoding/gob.
package a

import (
	"bytes"
	"encoding/gob" // want `encoding/gob opens a second serialization path`
)

// RoundTrip gob-encodes a value outside the wire package.
func RoundTrip(v int) int {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return 0
	}
	var out int
	if err := gob.NewDecoder(&b).Decode(&out); err != nil {
		return 0
	}
	return out
}
