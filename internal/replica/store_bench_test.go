package replica

import "testing"

var benchSink []byte

// BenchmarkStoreGet reads a 16 KiB value: the stored slice is handed out, so
// the cost is the lock and the map lookup — 0 B/op, 0 allocs/op.
func BenchmarkStoreGet(b *testing.B) {
	b.Run("16KiB", func(b *testing.B) {
		s := NewStore()
		s.Apply("k", make([]byte, 16<<10), Timestamp{Version: 1, Site: 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _, _ = s.Get("k")
		}
	})
}

// BenchmarkStoreApply installs ever-newer 16 KiB versions of one key. The
// store keeps the slice it is given, so nothing is allocated or copied per
// apply.
func BenchmarkStoreApply(b *testing.B) {
	b.Run("16KiB", func(b *testing.B) {
		s := NewStore()
		value := make([]byte, 16<<10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Apply("k", value, Timestamp{Version: uint64(i + 1), Site: 1})
		}
	})
}
