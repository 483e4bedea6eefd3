package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/replica"
	"arbor/internal/rpc"
	"arbor/internal/transport"
	"arbor/internal/wire"
	"arbor/internal/workload"
)

// The isolation table drives each layer alone through its public API, with
// the layers below it replaced by a null transport.Conn that answers at
// once. It says what a layer costs when nothing contends with it; the
// traced run says what it costs inside the running system.

// nullConn is a transport.Conn with nothing behind it: respond decides, on
// the sender's goroutine, what comes back for each payload sent.
type nullConn struct {
	addr    transport.Addr
	in      chan transport.Message
	respond func(to transport.Addr, payload any) (any, bool)
}

// newNullConn's inbox matches the TCP endpoint's, so a batch of requests
// can be queued to a replica the way a socket's read loop would.
func newNullConn(addr transport.Addr, respond func(to transport.Addr, payload any) (any, bool)) *nullConn {
	return &nullConn{addr: addr, in: make(chan transport.Message, 1024), respond: respond}
}

func (c *nullConn) Addr() transport.Addr           { return c.addr }
func (c *nullConn) Recv() <-chan transport.Message { return c.in }
func (c *nullConn) Send(to transport.Addr, payload any) error {
	if resp, ok := c.respond(to, payload); ok {
		c.in <- transport.Message{From: to, To: c.addr, Payload: resp}
	}
	return nil
}

// instantReplica answers every request the way a healthy replica that
// stores value under every key would, without doing any work.
func instantReplica(value []byte) func(transport.Addr, any) (any, bool) {
	ts := wire.Timestamp{Version: 1, Site: -1}
	return func(_ transport.Addr, payload any) (any, bool) {
		switch m := payload.(type) {
		case wire.ReadReq:
			return wire.ReadResp{ReqID: m.ReqID, Key: m.Key, Value: value, TS: ts, Found: true}, true
		case wire.VersionReq:
			return wire.VersionResp{ReqID: m.ReqID, Key: m.Key, TS: ts, Found: true}, true
		case wire.PrepareReq:
			return wire.PrepareResp{ReqID: m.ReqID, TxID: m.TxID, OK: true}, true
		case wire.CommitReq:
			return wire.CommitResp{ReqID: m.ReqID, TxID: m.TxID, OK: true}, true
		case wire.AbortReq:
			return wire.AbortResp{ReqID: m.ReqID, TxID: m.TxID}, true
		case wire.PingReq:
			return wire.PingResp{ReqID: m.ReqID}, true
		}
		return nil, false
	}
}

// perCall times fn in batches and returns the median batch's time per call
// in nanoseconds.
// Batches, not single calls, because most of these calls are shorter than
// a clock reading is precise; the median, because a batch that met a
// collection or a descheduling is not the layer's cost.
func perCall(batches, perBatch int, fn func()) (nanos float64) {
	for i := 0; i < perBatch; i++ { // warm-up
		fn()
	}
	per := make([]float64, batches)
	for b := range per {
		start := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(perBatch)
	}
	return median(per)
}

// us converts nanoseconds to microseconds.
func us(nanos float64) float64 { return nanos / 1e3 }

// messageMix is the sequence of messages the workload's first ops put on
// the wire on a healthy cluster: per read, a request and a reply per
// physical level; per write, a version exchange per level and a prepare
// and a commit exchange per member of one level, levels taken in rotation.
func messageMix(w workloadDef, an core.Analysis, ops int) ([]any, error) {
	gen, err := workload.NewGenerator(workload.Config{ReadFraction: w.readShare, Keys: w.keys, Seed: 1})
	if err != nil {
		return nil, err
	}
	t := an.Tree()
	levels := t.PhysicalLevels()
	value := make([]byte, w.valueSize)
	var mix []any
	id, writes := uint64(0), 0
	for i := 0; i < ops; i++ {
		op := gen.Next()
		ts := wire.Timestamp{Version: uint64(i + 1), Site: -1}
		if op.IsRead {
			for range levels {
				id++
				mix = append(mix,
					wire.ReadReq{ReqID: id, Key: op.Key, DeadlineMillis: 250},
					wire.ReadResp{ReqID: id, Key: op.Key, Value: value, TS: ts, Found: true})
			}
			continue
		}
		for range levels {
			id++
			mix = append(mix,
				wire.VersionReq{ReqID: id, Key: op.Key, ForWrite: true, DeadlineMillis: 250},
				wire.VersionResp{ReqID: id, Key: op.Key, TS: ts, Found: true})
		}
		members := t.PhysCount(levels[writes%len(levels)])
		writes++
		for m := 0; m < members; m++ {
			id += 2
			mix = append(mix,
				wire.PrepareReq{ReqID: id - 1, TxID: uint64(i), Key: op.Key, TS: ts, DeadlineMillis: 250},
				wire.PrepareResp{ReqID: id - 1, TxID: uint64(i), OK: true},
				wire.CommitReq{ReqID: id, TxID: uint64(i), Key: op.Key, Value: value, TS: ts, DeadlineMillis: 250},
				wire.CommitResp{ReqID: id, TxID: uint64(i), OK: true})
		}
	}
	return mix, nil
}

// isolationTable measures every layer alone for one workload's message mix
// and value size.
func isolationTable(w workloadDef, root string) ([]metric, error) {
	an, err := w.analyze()
	if err != nil {
		return nil, err
	}
	var ms []metric
	add := func(name, unit string, v float64, note string) {
		ms = append(ms, metric{name, unit, v, note})
	}

	// wire: the codec over the workload's message mix.
	mix, err := messageMix(w, an, 200)
	if err != nil {
		return nil, err
	}
	codec := wire.Binary()
	encoded := make([][]byte, len(mix))
	total := 0
	for i, m := range mix {
		if encoded[i], err = codec.Encode(nil, m); err != nil {
			return nil, err
		}
		total += len(encoded[i])
	}
	var buf []byte
	enc := perCall(15, 20, func() {
		for _, m := range mix {
			buf, _ = codec.Encode(buf[:0], m) // every message encoded once above
		}
	})
	dec := perCall(15, 20, func() {
		for _, e := range encoded {
			if _, err := codec.Decode(e); err != nil {
				panic(err) // the codec cannot read what it wrote
			}
		}
	})
	mixNote := fmt.Sprintf("isolation: the workload's mix of %d messages", len(mix))
	add("wire.encode_ns_per_msg", "ns", enc/float64(len(mix)), mixNote)
	add("wire.decode_ns_per_msg", "ns", dec/float64(len(mix)), mixNote)
	add("wire.bytes_per_msg", "B", float64(total)/float64(len(mix)), mixNote)

	// transport: one small frame echoed between two TCP endpoints.
	rt, err := tcpRoundTrip()
	if err != nil {
		return nil, err
	}
	add("transport.tcp_roundtrip_us", "us", us(rt), "isolation: a ping frame echoed between two TCPEndpoints on loopback")

	// rpc: Caller.Call over a conn that answers at once.
	value := make([]byte, w.valueSize)
	encodeValue(value, keyName(0), 0, 1)
	ctx := context.Background()
	conn := newNullConn(-1, instantReplica(value))
	rpcCaller := rpc.NewCaller(conn, 250*time.Millisecond)
	call := perCall(15, 2000, func() {
		if _, err := rpcCaller.Call(ctx, 1, wire.VersionReq{Key: keyName(0)}); err != nil {
			panic(err) // the null conn answers every request
		}
	})
	rpcCaller.Close()
	add("rpc.call_overhead_us", "us", us(call), "isolation: Caller.Call over a null conn that answers at once")

	// replica: the event loop on a stub conn, store included, no journal.
	handle, err := replicaHandle(w)
	if err != nil {
		return nil, err
	}
	add("replica.handle_ns_per_msg", "ns", handle, "isolation: a Replica on a stub conn, the workload's request mix, store included, no journal")

	// store.
	st := replica.NewStore()
	for k := 0; k < w.keys; k++ {
		st.Apply(keyName(k), value, wire.Timestamp{Version: 1, Site: -1})
	}
	keys := make([]string, w.keys)
	for k := range keys {
		keys[k] = keyName(k)
	}
	i := 0
	next := func() string { i++; return keys[i%len(keys)] }
	sizeNote := fmt.Sprintf("isolation: %d B values, %d keys", w.valueSize, w.keys)
	add("store.get_ns", "ns", perCall(15, 2000, func() { st.Get(next()) }), sizeNote)
	add("store.version_ns", "ns", perCall(15, 2000, func() { st.Version(next()) }), sizeNote)
	version := uint64(1)
	add("store.apply_ns", "ns", perCall(15, 2000, func() {
		version++
		st.Apply(next(), value, wire.Timestamp{Version: version, Site: -1})
	}), sizeNote)

	// wal: Append (write + sync per record) on tmpfs and on the checkout's
	// device. The second is the device's number, not the program's.
	tmpfs, err := walAppend(filepath.Join(root, "isolation.wal"), value, 15, 200)
	if err != nil {
		return nil, err
	}
	add("wal.append_tmpfs_us", "us", us(tmpfs), "isolation: WAL.Append under "+root)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	disk, err := walAppend(filepath.Join(".bench_build", "isolation.wal"), value, 5, 20)
	if err != nil {
		return nil, err
	}
	add("wal.append_disk_us", "us", us(disk), "isolation: WAL.Append in the checkout; informational, the device's latency")

	// client: a full op over a transport that answers at once.
	proto, err := core.New(an.Tree())
	if err != nil {
		return nil, err
	}
	cli := client.New(-1, newNullConn(-1, instantReplica(value)), proto)
	read := perCall(15, 500, func() {
		if _, err := cli.Read(ctx, next()); err != nil {
			panic(err) // the null transport answers every request
		}
	})
	write := perCall(15, 500, func() {
		if _, err := cli.Write(ctx, next(), value); err != nil {
			panic(err)
		}
	})
	cli.Close()
	add("client.read_overhead_us", "us", us(read), "isolation: Client.Read over a null transport that answers at once")
	add("client.write_overhead_us", "us", us(write), "isolation: Client.Write over a null transport that answers at once")
	return ms, nil
}

// tcpRoundTrip is the median time of one ping frame sent to a listener and
// echoed back, over real loopback sockets with the binary codec.
func tcpRoundTrip() (nanos float64, err error) {
	net := transport.NewTCPNetwork()
	defer net.Close()
	srv, err := net.Listen(1)
	if err != nil {
		return 0, err
	}
	cli, err := net.Dial(-1)
	if err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case m := <-srv.Recv():
				req := m.Payload.(wire.PingReq)
				_ = srv.Send(m.From, wire.PingResp{ReqID: req.ReqID, Site: 1}) // a lost echo shows as the timeout below
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	var id uint64
	var failed error
	rt := perCall(15, 500, func() {
		id++
		if err := cli.Send(1, wire.PingReq{ReqID: id}); err != nil {
			failed = err
			return
		}
		select {
		case <-cli.Recv():
		case <-time.After(time.Second):
			failed = fmt.Errorf("transport: no echo within a second")
		}
	})
	return rt, failed
}

// replicaHandle is the event loop's time per request with nothing below
// it: requests are queued on the stub conn in batches, and a batch is done
// when the replica has sent as many replies.
func replicaHandle(w workloadDef) (nanos float64, err error) {
	gen, err := workload.NewGenerator(workload.Config{ReadFraction: w.readShare, Keys: w.keys, Seed: 1})
	if err != nil {
		return 0, err
	}
	var replies atomic.Int64
	batchDone := make(chan struct{}, 1)
	var want int64
	conn := newNullConn(1, func(transport.Addr, any) (any, bool) {
		if replies.Add(1) == want {
			batchDone <- struct{}{}
		}
		return nil, false
	})
	r := replica.New(1, conn)
	value := make([]byte, w.valueSize)
	for k := 0; k < w.keys; k++ {
		r.Store().Apply(keyName(k), value, wire.Timestamp{Version: 1, Site: -1})
	}
	r.Start()
	defer r.Stop()

	// One batch: the requests the workload's next ops send to one replica.
	const batch = 512 // half the inbox, so queueing a batch never blocks
	version := uint64(1)
	var id uint64
	msgs := make([]transport.Message, 0, batch)
	fill := func() {
		msgs = msgs[:0]
		for len(msgs)+3 <= batch {
			op := gen.Next()
			if op.IsRead {
				id++
				msgs = append(msgs, transport.Message{From: -1, To: 1, Payload: wire.ReadReq{ReqID: id, Key: op.Key}})
				continue
			}
			version++
			ts := wire.Timestamp{Version: version, Site: -1}
			id += 3
			msgs = append(msgs,
				transport.Message{From: -1, To: 1, Payload: wire.VersionReq{ReqID: id - 2, Key: op.Key, ForWrite: true}},
				transport.Message{From: -1, To: 1, Payload: wire.PrepareReq{ReqID: id - 1, TxID: version, Key: op.Key, TS: ts}},
				transport.Message{From: -1, To: 1, Payload: wire.CommitReq{ReqID: id, TxID: version, Key: op.Key, Value: value, TS: ts}})
		}
	}
	per := make([]float64, 0, 16)
	for b := 0; b < cap(per)+1; b++ {
		fill()
		want = replies.Load() + int64(len(msgs))
		start := time.Now()
		for _, m := range msgs {
			conn.in <- m
		}
		select {
		case <-batchDone:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("replica: answered %d of %d queued requests", int64(len(msgs))-(want-replies.Load()), len(msgs))
		}
		if b > 0 { // the first batch is the warm-up
			per = append(per, float64(time.Since(start))/float64(len(msgs)))
		}
	}
	return median(per), nil
}

// walAppend is the median time of one WAL.Append of a value at path. The
// journal is removed afterwards.
func walAppend(path string, value []byte, batches, perBatch int) (nanos float64, err error) {
	wal, err := replica.OpenWAL(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		if rerr := os.Remove(path); err == nil {
			err = rerr
		}
	}()
	version := uint64(0)
	var failed error
	nanos = perCall(batches, perBatch, func() {
		version++
		if err := wal.Append(keyName(0), value, wire.Timestamp{Version: version, Site: -1}); err != nil {
			failed = err
		}
	})
	return nanos, failed
}
