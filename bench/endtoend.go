package main

import (
	"context"
	"fmt"
	"io"
	"math"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	// note is printed beside the value: sample counts, the closed-form
	// figure it is held against.
	note string
}

// outcome is what one invocation reports on its last line.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	// problems lists every reason the run is not correct (failed ops,
	// a quorum below the protocol's, a trace that does not add up).
	problems []string
}

func (o *outcome) add(t trialResult) {
	o.attempted += t.attempted
	o.failed += t.failed
	if t.firstErr != nil {
		o.problems = append(o.problems, fmt.Sprintf("%d ops failed, first: %v", t.failed, t.firstErr))
	}
}

// segmentValues reduces one segment to the per-segment value of every
// end-to-end metric computed per segment.
type segmentValues struct {
	opsPerS                  float64
	readP50, readP95         float64
	writeP50, writeP95       float64
	contactsRead, contactsWr float64
	allocsPerOp              float64
}

func (s segmentResult) values() segmentValues {
	return segmentValues{
		opsPerS:      float64(s.ops) / s.wall.Seconds(),
		readP50:      percentile(s.readLat, 0.50),
		readP95:      percentile(s.readLat, 0.95),
		writeP50:     percentile(s.writeLat, 0.50),
		writeP95:     percentile(s.writeLat, 0.95),
		contactsRead: ratio(s.readContacts, uint64(len(s.readLat))),
		contactsWr:   ratio(s.writeContacts, uint64(len(s.writeLat))),
		allocsPerOp:  float64(s.mallocs) / float64(s.ops),
	}
}

// atReferenceSpeed is what the segment's timings would have read had the
// machine run at the probe's nominal speed instead of slowdown times slower
// (probe.go). Counts do not depend on the machine and stay as they are.
func (v segmentValues) atReferenceSpeed(slowdown float64) segmentValues {
	v.opsPerS *= slowdown
	v.readP50 /= slowdown
	v.readP95 /= slowdown
	v.writeP50 /= slowdown
	v.writeP95 /= slowdown
	return v
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}

// values reduces the trial's segments.
func (t trialResult) values() []segmentValues {
	vals := make([]segmentValues, len(t.segs))
	for i, s := range t.segs {
		vals[i] = s.values()
	}
	return vals
}

// medianOf is the median over segments of one per-segment value.
func medianOf(segs []segmentValues, pick func(segmentValues) float64) float64 {
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = pick(s)
	}
	return median(vals)
}

// runEndToEnd is one run of one workload: trials fresh clusters, each with
// its set-up and segments measured segments. Every timing is computed per
// segment, brought to reference machine speed by the probe readings taken
// before and after its trial, and reported as the median over all
// segments; set-up time and live heap are medians over the trials. Single
// fresh clusters of the same binary differed by ±12% in throughput on the
// reference box (connection and goroutine placement, learned site
// ordering), so one cluster is not a measurement; the median over several
// is.
func runEndToEnd(ctx context.Context, w workloadDef, seed int64, seconds int, root string, out io.Writer) (outcome, error) {
	shape := trialShape{segments: segments, segmentOps: w.scaledSegmentOps(seconds)}
	an, err := w.analyze()
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintf(out, "tree %s: n=%d, read cost %d, write cost min/avg/max %d/%.2f/%d\n",
		w.spec, an.Tree().N(), an.ReadCost, an.WriteCostMin, an.WriteCostAvg, an.WriteCostMax)
	fmt.Fprintf(out, "shape: %d trials x %d segments x %d ops (+%d warm-up), %d closed-loop callers, %.0f%% reads, %d keys uniform, %d B values\n",
		trials, segments, shape.segmentOps, shape.segmentOps/4, callers, w.readShare*100, w.keys, w.valueSize)

	// Segments are reduced to their values at once: kept whole, their
	// latency samples would grow the live heap from trial to trial.
	var o outcome
	var all, measured []segmentValues
	var setups, measuredSetups, heaps, slowdowns []float64
	reads, writes := 0, 0
	// The first probe of a process reads a tenth slow (cold sockets, heap
	// and scheduler), so one is thrown away.
	if _, err := machineSlowdown(); err != nil {
		return o, fmt.Errorf("machine probe: %w", err)
	}
	before, err := machineSlowdown()
	if err != nil {
		return o, fmt.Errorf("machine probe: %w", err)
	}
	for t := 0; t < trials; t++ {
		res, err := runTrial(ctx, w, seed*trials+int64(t), root, shape, nil)
		if err != nil {
			return o, fmt.Errorf("trial %d: %w", t+1, err)
		}
		after, err := machineSlowdown()
		if err != nil {
			return o, fmt.Errorf("machine probe: %w", err)
		}
		slowdown := (before + after) / 2
		before = after
		o.add(res)
		slowdowns = append(slowdowns, slowdown)
		setups = append(setups, res.setup.Seconds()/slowdown)
		measuredSetups = append(measuredSetups, res.setup.Seconds())
		heaps = append(heaps, res.liveHeapMB)
		fmt.Fprintf(out, "trial %d: machine slowdown %.2f, setup %.3f s, live heap %.1f MiB, ops/s as measured", t+1, slowdown, res.setup.Seconds(), res.liveHeapMB)
		for i, v := range res.values() {
			measured = append(measured, v)
			all = append(all, v.atReferenceSpeed(slowdown))
			reads += len(res.segs[i].readLat)
			writes += len(res.segs[i].writeLat)
			fmt.Fprintf(out, " %.0f", v.opsPerS)
		}
		fmt.Fprintln(out)
	}

	// timing is one gated timing: the median over segments at reference
	// speed, with the median as measured beside it.
	timing := func(name, unit string, samples int, pick func(segmentValues) float64) metric {
		return metric{name, unit, medianOf(all, pick), fmt.Sprintf("at reference speed; as measured %.4f; median of %d segments, about %d samples each",
			medianOf(measured, pick), len(all), samples/len(all))}
	}
	cpr := medianOf(all, func(v segmentValues) float64 { return v.contactsRead })
	cpw := medianOf(all, func(v segmentValues) float64 { return v.contactsWr })
	fmt.Fprintf(out, "machine slowdown against the probe's nominal %v: median %.3f over %d trials\n", probeNominal, median(slowdowns), trials)
	o.metrics = []metric{
		{"setup_s", "s", median(setups), fmt.Sprintf("at reference speed; as measured %.4f; median of %d trials", median(measuredSetups), trials)},
		timing("ops_per_s", "1/s", reads+writes, func(v segmentValues) float64 { return v.opsPerS }),
		timing("read_p50_us", "us", reads, func(v segmentValues) float64 { return v.readP50 }),
		timing("read_p95_us", "us", reads, func(v segmentValues) float64 { return v.readP95 }),
		timing("write_p50_us", "us", writes, func(v segmentValues) float64 { return v.writeP50 }),
		timing("write_p95_us", "us", writes, func(v segmentValues) float64 { return v.writeP95 }),
		{"contacts_per_read", "count", cpr, fmt.Sprintf("core.Analyze read cost %d", an.ReadCost)},
		{"contacts_per_write", "count", cpw, fmt.Sprintf("version discovery + prepares; read cost + average write cost = %.2f", float64(an.ReadCost)+an.WriteCostAvg)},
		{"allocs_per_op", "count", medianOf(all, func(v segmentValues) float64 { return v.allocsPerOp }), "clients and replicas share the process"},
		{"live_heap_mb", "MiB", median(heaps), fmt.Sprintf("median of %d trials, after two forced collections", trials)},
	}
	// A quorum smaller than the protocol's is a bug, not a speed-up.
	if cpr < float64(an.ReadCost) {
		o.problems = append(o.problems, fmt.Sprintf("contacts_per_read %.3f is below the read quorum size %d", cpr, an.ReadCost))
	}
	if floor := float64(an.ReadCost + an.WriteCostMin); cpw < floor {
		o.problems = append(o.problems, fmt.Sprintf("contacts_per_write %.3f is below discovery + smallest write quorum = %.0f", cpw, floor))
	}
	return o, nil
}

// printMetrics writes the metric table.
func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%-32s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}
