// Micro-benchmarks of the client's quorum engine alone: a full Client.Read
// or Client.Write over a canned connection that answers every request from
// inside Send, so what is timed is site ordering, the assembly state
// machine, rpc.Caller and the reply pump — no replica, no codec, no
// socket. The per-layer budget's "engine over a canned caller" row.
package arbor_test

import (
	"context"
	"testing"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/transport"
	"arbor/internal/tree"
	"arbor/internal/wire"
)

// cannedConn is a transport.Conn with a healthy replica behind every
// address: each request is answered at once, as if every site stored
// "v"@1 under every key and granted every prepare.
type cannedConn struct {
	in chan transport.Message
}

func (c *cannedConn) Addr() transport.Addr           { return -1 }
func (c *cannedConn) Recv() <-chan transport.Message { return c.in }

func (c *cannedConn) Send(to transport.Addr, payload any) error {
	var reply any
	switch m := payload.(type) {
	case wire.ReadReq:
		reply = wire.ReadResp{ReqID: m.ReqID, Key: m.Key, Value: []byte("v"), TS: wire.Timestamp{Version: 1, Site: -1}, Found: true}
	case wire.VersionReq:
		reply = wire.VersionResp{ReqID: m.ReqID, Key: m.Key, TS: wire.Timestamp{Version: 1, Site: -1}, Found: true}
	case wire.PrepareReq:
		reply = wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, OK: true}
	case wire.CommitReq:
		reply = wire.CommitResp{ReqID: m.ReqID, TxID: m.TxID, OK: true}
	case wire.AbortReq:
		reply = wire.AbortResp{ReqID: m.ReqID, TxID: m.TxID}
	default:
		return nil
	}
	c.in <- transport.Message{From: to, To: -1, Payload: reply}
	return nil
}

// engineClient builds a client for spec over a canned connection.
func engineClient(b *testing.B, spec string) *client.Client {
	b.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := core.New(tr)
	if err != nil {
		b.Fatal(err)
	}
	// Room for every reply of one operation: Send never blocks.
	cli := client.New(-1, &cannedConn{in: make(chan transport.Message, 256)}, proto, client.WithSeed(1))
	b.Cleanup(cli.Close)
	return cli
}

func BenchmarkEngineReadQuorum(b *testing.B) {
	for _, cfg := range []struct{ name, spec string }{
		{"1-3-5", "1-3-5"},
		{"deep8", "1-2-2-2-2-2-2-2-2"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			cli := engineClient(b, cfg.spec)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cli.Read(ctx, "k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineWrite2PC(b *testing.B) {
	b.Run("1-3-5", func(b *testing.B) {
		cli := engineClient(b, "1-3-5")
		ctx := context.Background()
		val := []byte("v")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Write(ctx, "k", val); err != nil {
				b.Fatal(err)
			}
		}
	})
}
