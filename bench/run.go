package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arbor/internal/client"
	"arbor/internal/replica"
	"arbor/internal/workload"
)

// caller is one closed-loop user of the library: it blocks in Read or
// Write, checks what came back, and issues the next op. It owns its client
// endpoint, its op stream and its view of every key, so the hot loop takes
// no lock.
type caller struct {
	idx       int
	cli       *client.Client
	gen       *workload.Generator
	valueSize int

	seq    uint64 // writes issued so far
	valBuf []byte // reused: nothing references a value after Write returns

	// seen is the newest timestamp this caller has observed per key, from
	// its own acknowledged writes and from its reads; a write acknowledged
	// at or below it went backwards. acked is this caller's newest
	// acknowledged write per key it owns (k % callers == idx), the input to
	// the end-of-trial check.
	seen  []replica.Timestamp
	acked []ackedWrite
	// floor is shared by the trial's callers: per key, the version of the
	// newest acknowledged write. A key has one writer, so each entry has
	// one storer; a reader loads it before it issues the read, and a read
	// that returns an older version missed an acknowledged write.
	floor []atomic.Uint64

	attempted, failed int
	firstErr          error

	// Replica requests sent, as each op's result reports them: for a read
	// one per level probed, for a write version discovery plus prepares.
	readContacts, writeContacts uint64

	// Latency samples of the current segment, in µs. Allocated once so the
	// harness adds no allocation to a measured op.
	readLat, writeLat []float64

	// ops is set on a traced run: the caller records an op span around
	// every call and tells its endpoint's shim which op it is inside.
	shim *shimConn
	ops  []opSpan
}

type ackedWrite struct {
	ts  replica.Timestamp
	seq uint64
}

func newCaller(idx int, cli *client.Client, w workloadDef, seed int64, segmentOps int, floor []atomic.Uint64) (*caller, error) {
	gen, err := workload.NewGenerator(workload.Config{ReadFraction: w.readShare, Keys: w.keys, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &caller{
		idx:       idx,
		cli:       cli,
		gen:       gen,
		valueSize: w.valueSize,
		valBuf:    make([]byte, w.valueSize),
		seen:      make([]replica.Timestamp, w.keys),
		acked:     make([]ackedWrite, w.keys),
		floor:     floor,
		readLat:   make([]float64, 0, segmentOps),
		writeLat:  make([]float64, 0, segmentOps),
	}, nil
}

func keyName(i int) string { return "key-" + strconv.Itoa(i) }

// keyIndex inverts the generator's key naming ("key-<n>").
func keyIndex(key string) int {
	n, err := strconv.Atoi(key[len("key-"):])
	if err != nil {
		panic("bench: generator produced key " + key)
	}
	return n
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// write issues one write and records its acknowledgement. A failed op has
// no latency sample.
func (c *caller) write(ctx context.Context, key string, k int) {
	c.attempted++
	c.seq++
	encodeValue(c.valBuf, key, c.idx, c.seq)
	start := c.begin()
	res, err := c.cli.Write(ctx, key, c.valBuf)
	lat := c.end(start, false)
	c.writeContacts += uint64(res.Contacts)
	switch {
	case err != nil:
		c.fail(fmt.Errorf("write %s: %w", key, err))
	case !res.TS.After(c.seen[k]):
		c.fail(fmt.Errorf("write %s: acknowledged at %s, not after %s this caller already saw", key, res.TS, c.seen[k]))
	default:
		c.seen[k] = res.TS
		c.acked[k] = ackedWrite{ts: res.TS, seq: c.seq}
		c.floor[k].Store(res.TS.Version)
		c.writeLat = append(c.writeLat, lat)
	}
}

// read issues one read and checks it: the value must decode, belong to the
// key, and not be older than the newest write of the key, by either caller,
// that was acknowledged before the read began.
//
// It is not held against this caller's earlier reads of the key. Replicas
// serve reads of a key that is being committed, so while the other caller's
// write is in its commit round a read answered by a member that has applied
// it returns the new version and the next one, answered by a member of the
// same level that has not yet, the previous one — which is still the newest
// acknowledged write. With 32 keys of 16 KiB that happened 3 times in 170 000
// ops; the protocol promises the newest completed write, not monotonic reads
// across a write in flight.
func (c *caller) read(ctx context.Context, key string, k int) (res client.ReadResult, ok bool) {
	c.attempted++
	floor := c.floor[k].Load()
	start := c.begin()
	res, err := c.cli.Read(ctx, key)
	lat := c.end(start, true)
	c.readContacts += uint64(res.Contacts)
	if err == nil {
		_, _, err = decodeValue(res.Value, key, c.valueSize)
	}
	switch {
	case err != nil:
		c.fail(fmt.Errorf("read %s: %w", key, err))
	case res.TS.Version < floor:
		c.fail(fmt.Errorf("read %s: returned %s, older than v%d acknowledged before the read began", key, res.TS, floor))
	default:
		if res.TS.After(c.seen[k]) {
			c.seen[k] = res.TS
		}
		c.readLat = append(c.readLat, lat)
		return res, true
	}
	return res, false
}

func (c *caller) begin() time.Time {
	if c.shim != nil {
		c.shim.curOp.Store(opID(c.idx, len(c.ops)))
	}
	return time.Now()
}

// end returns the call's latency in µs and, on a traced run, records the
// op span.
func (c *caller) end(start time.Time, isRead bool) float64 {
	d := time.Since(start)
	if c.shim != nil {
		c.shim.curOp.Store(0)
		tr := c.shim.tr
		if tr.on.Load() {
			c.ops = append(c.ops, opSpan{id: opID(c.idx, len(c.ops)), read: isRead, start: tr.stamp(start), end: tr.stamp(start.Add(d))})
		}
	}
	return float64(d) / float64(time.Microsecond)
}

// run issues n ops of the generated stream.
func (c *caller) run(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		op := c.gen.Next()
		k := keyIndex(op.Key)
		if op.IsRead {
			c.read(ctx, op.Key, k)
			continue
		}
		// A write goes to the nearest key of the caller's own residue
		// class: every key has one writer. Two callers preparing the same
		// key at once can each lock part of a level, abort, and meet again
		// on the next level; with two levels that fails both writes, and a
		// workload may not contain failing ops. Writes stay uniform over
		// all keys, reads are untouched.
		k += c.idx - k%callers
		c.write(ctx, keyName(k), k)
	}
}

// inParallel runs fn once per caller and waits for all of them.
func inParallel(cs []*caller, fn func(c *caller)) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// counts is every cumulative counter a trial reads, taken in one place so
// that a window's figures are one subtraction.
type counts struct {
	// Replica requests sent, as the callers' op results report them.
	readContacts, writeContacts uint64
	// The same total as Client.Metrics counts it.
	metricsContacts uint64
	mallocs         uint64 // runtime.MemStats.Mallocs: clients and replicas share the process

	// Read on the traced run only.
	replicaMsgs, replicaSheds, commits uint64 // Replica.Stats
	hedges, levelRetries, coalesced    uint64 // the client's observer counters
	journalBytes                       uint64
}

func (fx *fixture) counts(cs []*caller) counts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counts{mallocs: ms.Mallocs, journalBytes: fx.journalBytes()}
	for _, cl := range cs {
		c.readContacts += cl.readContacts
		c.writeContacts += cl.writeContacts
	}
	for _, cl := range fx.clients {
		m := cl.Metrics()
		c.metricsContacts += m.ReadContacts + m.WriteContacts
	}
	for _, r := range fx.replicas {
		st := r.Stats()
		c.replicaMsgs += st.Messages
		c.replicaSheds += st.Sheds
		c.commits += st.Commits
	}
	c.hedges, c.levelRetries, c.coalesced = fx.observerCounters()
	return c
}

func (c counts) minus(o counts) counts {
	return counts{
		readContacts:    c.readContacts - o.readContacts,
		writeContacts:   c.writeContacts - o.writeContacts,
		metricsContacts: c.metricsContacts - o.metricsContacts,
		mallocs:         c.mallocs - o.mallocs,
		replicaMsgs:     c.replicaMsgs - o.replicaMsgs,
		replicaSheds:    c.replicaSheds - o.replicaSheds,
		commits:         c.commits - o.commits,
		hedges:          c.hedges - o.hedges,
		levelRetries:    c.levelRetries - o.levelRetries,
		coalesced:       c.coalesced - o.coalesced,
		journalBytes:    c.journalBytes - o.journalBytes,
	}
}

// segmentResult is what one measured segment yields. Latencies are sorted.
type segmentResult struct {
	ops               int
	wall              time.Duration
	readLat, writeLat []float64 // of the reads and writes that succeeded
	counts                      // over the segment
}

// trialResult is one fresh cluster's life: set-up, segments, final check.
type trialResult struct {
	setup      time.Duration
	segs       []segmentResult
	window     counts // from the first segment's start to the last one's end
	liveHeapMB float64
	attempted  int
	failed     int
	firstErr   error
}

// trialShape is how much of the full shape a trial runs: end-to-end runs
// use the full one, the traced run and its untraced reference a short one.
type trialShape struct {
	segments   int
	segmentOps int
}

// runTrial builds a fresh cluster, preloads it (both timed as set-up),
// warms up, measures the segments, checks every key, and tears down.
func runTrial(ctx context.Context, w workloadDef, seed int64, root string, shape trialShape, tr *tracer) (res trialResult, err error) {
	setupStart := time.Now()
	fx, err := newFixture(w, root, tr)
	if err != nil {
		return res, err
	}
	defer fx.close()
	cs := make([]*caller, callers)
	floor := make([]atomic.Uint64, w.keys)
	for i := range cs {
		if cs[i], err = newCaller(i, fx.clients[i], w, seed*int64(callers)+int64(i), shape.segmentOps, floor); err != nil {
			return res, err
		}
		if tr != nil {
			cs[i].shim = tr.clientShim(i)
		}
	}
	// Preload: every key is written through the clients, each caller
	// taking the keys of its residue class.
	inParallel(cs, func(c *caller) {
		for pass := 0; pass < w.preloadPasses; pass++ {
			for k := c.idx; k < w.keys; k += callers {
				c.write(ctx, keyName(k), k)
			}
		}
	})
	res.setup = time.Since(setupStart)

	// Warm-up, untimed: connection pools fill, the engine learns its site
	// ordering, pooled buffers reach their working size.
	inParallel(cs, func(c *caller) { c.run(ctx, shape.segmentOps/4/callers) })

	var first, last counts
	for s := 0; s < shape.segments; s++ {
		for _, c := range cs {
			c.readLat, c.writeLat = c.readLat[:0], c.writeLat[:0]
		}
		before := fx.counts(cs)
		if s == 0 {
			first = before
		}
		if tr != nil {
			tr.on.Store(true)
		}
		start := time.Now()
		inParallel(cs, func(c *caller) { c.run(ctx, shape.segmentOps/callers) })
		wall := time.Since(start)
		if tr != nil {
			tr.on.Store(false)
		}
		last = fx.counts(cs)
		seg := segmentResult{ops: shape.segmentOps, wall: wall, counts: last.minus(before)}
		for _, c := range cs {
			seg.readLat = append(seg.readLat, c.readLat...)
			seg.writeLat = append(seg.writeLat, c.writeLat...)
		}
		sort.Float64s(seg.readLat)
		sort.Float64s(seg.writeLat)
		// Contacts are attributed to reads and writes by each op's own
		// result, because Client.Metrics books a write's version discovery
		// under ReadContacts; the two sources must still agree in total.
		if seg.metricsContacts != seg.readContacts+seg.writeContacts && res.firstErr == nil {
			res.failed++
			res.firstErr = fmt.Errorf("segment %d: op results report %d contacts, Client.Metrics counted %d", s+1, seg.readContacts+seg.writeContacts, seg.metricsContacts)
		}
		res.segs = append(res.segs, seg)
	}
	res.window = last.minus(first)

	// Live heap: what the cluster retains once garbage is gone. Two
	// collections, because the first only moves pooled buffers to the
	// victim cache; unforced, the figure depends on the GC phase.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)

	// Final check, callers quiesced: every key must read back as the
	// newest acknowledged write.
	inParallel(cs, func(c *caller) {
		for k := c.idx; k < w.keys; k += callers {
			key := keyName(k)
			got, ok := c.read(ctx, key, k)
			if !ok {
				continue
			}
			want := c.acked[k] // the keys a caller checks are the keys it writes
			writer, seq, _ := decodeValue(got.Value, key, w.valueSize)
			if got.TS != want.ts || writer != c.idx || seq != want.seq {
				c.fail(fmt.Errorf("final read %s: got %s (caller %d seq %d), newest acknowledged write is %s (caller %d seq %d)",
					key, got.TS, writer, seq, want.ts, c.idx, want.seq))
			}
		}
	})
	for _, c := range cs {
		res.attempted += c.attempted
		res.failed += c.failed
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	if tr != nil {
		for _, c := range cs {
			tr.ops = append(tr.ops, c.ops...)
		}
	}
	return res, nil
}
