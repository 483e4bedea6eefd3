package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Values are self-describing, so a read can be checked without asking the
// harness what was written:
//
//	[0:4)   CRC-32 (IEEE) of everything after it
//	[4:6)   key length
//	[6:8)   caller that wrote it
//	[8:16)  that caller's write sequence number
//	[16:…)  the key, then padding derived from the sequence number
const valueHeader = 16

// minValueSize is the smallest value that can carry the given key.
func minValueSize(key string) int { return valueHeader + len(key) }

// encodeValue fills buf (whose length is the workload's value size) with
// the value caller's seq-th write stores under key. It panics when buf
// cannot hold the header: workload sizes are fixed at compile time.
func encodeValue(buf []byte, key string, caller int, seq uint64) {
	if len(buf) < minValueSize(key) || len(key) > 0xffff {
		panic(fmt.Sprintf("bench: value of %d bytes cannot carry key %q", len(buf), key))
	}
	binary.BigEndian.PutUint16(buf[4:6], uint16(len(key)))
	binary.BigEndian.PutUint16(buf[6:8], uint16(caller))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	n := copy(buf[valueHeader:], key)
	pad := buf[valueHeader+n:]
	for i := range pad {
		pad[i] = byte(seq) + byte(i)
	}
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
}

var errBadValue = errors.New("bench: value failed its check")

// decodeValue verifies a value read under key — size, checksum, embedded
// key — and returns who wrote it.
func decodeValue(buf []byte, key string, size int) (caller int, seq uint64, err error) {
	if len(buf) != size {
		return 0, 0, fmt.Errorf("%w: key %s: %d bytes, want %d", errBadValue, key, len(buf), size)
	}
	if len(buf) < valueHeader {
		return 0, 0, fmt.Errorf("%w: key %s: shorter than the header", errBadValue, key)
	}
	if got, want := crc32.ChecksumIEEE(buf[4:]), binary.BigEndian.Uint32(buf[0:4]); got != want {
		return 0, 0, fmt.Errorf("%w: key %s: checksum %08x, want %08x", errBadValue, key, got, want)
	}
	klen := int(binary.BigEndian.Uint16(buf[4:6]))
	if valueHeader+klen > len(buf) || string(buf[valueHeader:valueHeader+klen]) != key {
		return 0, 0, fmt.Errorf("%w: key %s: value belongs to another key", errBadValue, key)
	}
	return int(binary.BigEndian.Uint16(buf[6:8])), binary.BigEndian.Uint64(buf[8:16]), nil
}
