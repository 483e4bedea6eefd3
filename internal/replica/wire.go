package replica

import "arbor/internal/wire"

// Bridges between the store's durability layers and the wire record
// format. The WAL and snapshots both persist store entries as
// self-contained, length-prefixed binary records (wire.Record). Files from
// before that format (gob) are rejected by name in wal.go and persist.go.

// appendStoreRecord appends one store entry in the framed binary record
// form shared by the WAL and snapshots.
func appendStoreRecord(dst []byte, key string, value []byte, ts Timestamp) []byte {
	return wire.AppendFramedRecord(dst, wire.Record{Key: key, Value: value, TS: ts})
}
