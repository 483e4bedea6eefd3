package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// tracedSegments is the shape of the traced trial and of the untraced
// trial it is compared with: one fresh cluster, two segments.
const tracedSegments = 2

// observerCounters reads the hedge, retry and coalescing counters the
// client already keeps on its observer; the observer is attached on the
// traced run only, and only for this.
func (fx *fixture) observerCounters() (hedges, levelRetries, coalesced uint64) {
	if fx.observer == nil {
		return 0, 0, 0
	}
	reg := fx.observer.Reg()
	return reg.CounterVec("arbor_client_hedges_total", "", "event").With("launched").Value(),
		reg.CounterVec("arbor_client_retries_total", "", "kind").With("level").Value(),
		reg.Counter("arbor_client_coalesced_reads_total", "").Value()
}

// runTraced produces the per-layer metrics: the isolation table, then one
// untraced and one traced trial of the same op stream. End-to-end numbers
// are never taken from the traced trial; the difference between the two is
// what tracing costs.
func runTraced(ctx context.Context, w workloadDef, seed int64, seconds int, root string, out io.Writer) (outcome, error) {
	var o outcome
	an, err := w.analyze()
	if err != nil {
		return o, err
	}
	iso, err := isolationTable(w, root)
	if err != nil {
		return o, fmt.Errorf("isolation table: %w", err)
	}
	shape := trialShape{segments: tracedSegments, segmentOps: w.scaledSegmentOps(seconds)}
	fmt.Fprintf(out, "traced run: 1 trial x %d segments x %d ops, untraced then traced, same op stream\n", shape.segments, shape.segmentOps)

	plain, err := runTrial(ctx, w, seed*trials, root, shape, nil)
	if err != nil {
		return o, fmt.Errorf("untraced trial: %w", err)
	}
	o.add(plain)
	tr := newTracer()
	traced, err := runTrial(ctx, w, seed*trials, root, shape, tr)
	if err != nil {
		return o, fmt.Errorf("traced trial: %w", err)
	}
	o.add(traced)
	path := filepath.Join("bench", "out", "trace-"+w.name+".jsonl")
	sum, err := tr.summarize(path)
	if err != nil {
		return o, fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(out, "trace: %d ops, %d messages, spans written to %s\n", sum.ops, sum.messages, path)
	fmt.Fprintf(out, "self time, median us: read op %.1f of %.1f; write op %.1f of %.1f; contact outside the replica %.1f; serve read %.1f, prepare %.1f, commit %.1f\n",
		median(sum.readSelf), median(sum.readTotal), median(sum.writeSelf), median(sum.writeTotal),
		2*median(sum.oneWay), median(sum.serveRead), median(sum.servePrepare), median(sum.serveCommit))

	// Counts are taken where the work happens and must agree with the
	// client's own counters for the same segments.
	var reads, writes uint64
	for _, s := range traced.segs {
		reads += uint64(len(s.readLat))
		writes += uint64(len(s.writeLat))
	}
	win := traced.window
	readContacts, writeContacts := win.readContacts, win.writeContacts
	if uint64(sum.readOpContacts) != readContacts || uint64(sum.writeOpDiscoveryPrepare) != writeContacts {
		o.problems = append(o.problems, fmt.Sprintf("trace has %d read contacts and %d write discovery+prepare contacts, Client.Metrics counted %d and %d",
			sum.readOpContacts, sum.writeOpDiscoveryPrepare, readContacts, writeContacts))
	}
	requests := 0
	for k := kindRead; k <= kindAbort; k++ {
		requests += sum.contactsByKind[k]
		// Every contact is served exactly once, unless it went unanswered.
		if missing := sum.contactsByKind[k] - sum.servesByKind[k]; missing < 0 || missing > sum.unanswered {
			o.problems = append(o.problems, fmt.Sprintf("trace has %d %s contacts but %d serves", sum.contactsByKind[k], k, sum.servesByKind[k]))
		}
	}
	if uint64(sum.ops) != reads+writes {
		o.problems = append(o.problems, fmt.Sprintf("trace has %d op spans, the clients completed %d ops", sum.ops, reads+writes))
	}

	ops := float64(sum.ops)
	sorted := func(v []float64) []float64 { sort.Float64s(v); return v }
	var plainReads, plainWrites []float64
	for _, s := range plain.segs {
		plainReads = append(plainReads, s.readLat...)
		plainWrites = append(plainWrites, s.writeLat...)
	}
	sorted(plainReads)
	sorted(plainWrites)
	opsPerS := func(v segmentValues) float64 { return v.opsPerS }
	plainOps, tracedOps := medianOf(plain.values(), opsPerS), medianOf(traced.values(), opsPerS)
	n := func(v []float64) string { return fmt.Sprintf("traced: %d samples", len(v)) }
	rtt := sorted(sum.contactRTT)

	o.metrics = iso
	add := func(name, unit string, v float64, note string) {
		o.metrics = append(o.metrics, metric{name, unit, v, note})
	}
	add("transport.oneway_us", "us", median(sum.oneWay), "traced: (contact - time at the replica) / 2, median; "+n(sum.oneWay))
	add("transport.msgs_per_op", "count", float64(sum.messages)/ops, "traced: requests and replies")
	add("transport.wire_bytes_per_op", "B", float64(sum.wireBytes)/ops, "traced: payloads as wire.Binary() encodes them")
	add("rpc.contact_rtt_p50_us", "us", percentile(rtt, 0.50), n(rtt))
	add("rpc.contact_rtt_p95_us", "us", percentile(rtt, 0.95), n(rtt))
	add("rpc.unanswered_share", "share", float64(sum.unanswered)/float64(requests), "traced: requests with no reply inside their op")
	add("replica.serve_read_us", "us", median(sum.serveRead), n(sum.serveRead))
	add("replica.serve_prepare_us", "us", median(sum.servePrepare), n(sum.servePrepare))
	add("replica.serve_commit_us", "us", median(sum.serveCommit), n(sum.serveCommit))
	add("replica.inbox_wait_us", "us", mean(sum.inboxWait), "traced: mean wait for the event loop; "+n(sum.inboxWait))
	add("replica.msgs_per_op", "count", float64(win.replicaMsgs)/ops, "traced: Replica.Stats().Messages")
	add("replica.sheds_per_op", "count", float64(win.replicaSheds)/ops, "traced: Replica.Stats().Sheds")
	add("wal.appends_per_write", "count", ratio(win.commits, writes), "traced: commits applied per write")
	add("wal.bytes_per_write", "B", ratio(win.journalBytes, writes), "traced: journal growth per write")
	add("client.read_self_us", "us", median(sum.readSelf), "traced: op minus the union of its contacts, median; "+n(sum.readSelf))
	add("client.write_self_us", "us", median(sum.writeSelf), "traced: op minus the union of its contacts, median; "+n(sum.writeSelf))
	add("client.read_p99_us", "us", percentile(plainReads, 0.99), fmt.Sprintf("untraced trial: %d samples", len(plainReads)))
	add("client.write_p99_us", "us", percentile(plainWrites, 0.99), fmt.Sprintf("untraced trial: %d samples", len(plainWrites)))
	add("client.read_p999_us", "us", percentile(plainReads, 0.999), fmt.Sprintf("untraced trial: %d samples", len(plainReads)))
	add("client.hedges_per_op", "count", float64(win.hedges)/ops, "traced: observer counter")
	add("client.level_retries_per_op", "count", float64(win.levelRetries)/ops, "traced: observer counter")
	add("client.coalesced_read_share", "share", ratio(win.coalesced, reads), "traced: observer counter; one caller per client, so nothing can coalesce")
	add("client.read_contact_waste", "ratio", ratio(readContacts, reads)/float64(an.ReadCost), "traced: contacts per read over core.Analyze read cost")
	add("client.write_contact_waste", "ratio", ratio(writeContacts, writes)/(float64(an.ReadCost)+an.WriteCostAvg), "traced: contacts per write over read cost + average write cost")
	add("trace.overhead_share", "share", 1-tracedOps/plainOps, fmt.Sprintf("1 - traced/untraced ops_per_s (%.0f / %.0f)", tracedOps, plainOps))
	return o, nil
}
