package main

import "fmt"

// A workloadDef is one traffic mix against one tree. Every workload runs the
// same stack (2 closed-loop callers → client → rpc → framed TCP on
// loopback → replica event loop → store → WAL on tmpfs); they differ in
// which layer does most of the work.
type workloadDef struct {
	name string
	// spec is the tree in the paper's notation.
	spec string
	// readShare is the probability that a generated op is a read.
	readShare float64
	// keys is the population; keys are drawn uniformly.
	keys int
	// valueSize is the size of every written value in bytes.
	valueSize int
	// segmentOps is the op count of one measured segment at refSeconds,
	// sized so a segment takes about 0.8 s on the 2-core reference box.
	segmentOps int
	// preloadPasses is how many times set-up writes every key, sized so
	// set-up takes at least a second (shorter set-ups did not repeat).
	preloadPasses int
}

// refSeconds is the -seconds value (BENCHMARK.json's run_seconds) at which
// a segment has exactly workload.segmentOps ops. Other values scale every
// segment by seconds/refSeconds, so the op count is a pure function of the
// arguments and two commits given the same arguments do identical work.
const refSeconds = 12

const (
	trials   = 5 // fresh clusters per run
	segments = 3 // measured segments per trial
	callers  = 2 // closed-loop callers, one client endpoint each
)

var workloads = []workloadDef{
	{
		name: "read-heavy",
		// Four small messages per op, so fixed per-message cost in client,
		// rpc, wire and transport does nearly all the work.
		spec:          "1-3-5",
		readShare:     0.95,
		keys:          8192,
		valueSize:     128,
		segmentOps:    18000,
		preloadPasses: 1,
	},
	{
		name: "write-heavy",
		// About 20 messages per write, so replica locks and event loop,
		// Store.Apply, WAL.Append and the 2PC driver do the work, and reads
		// queue behind commits.
		spec:          "1-3-5",
		readShare:     0.20,
		keys:          8192,
		valueSize:     128,
		segmentOps:    5600,
		preloadPasses: 1,
	},
	{
		name: "deep-tree-mixed",
		// Reads fan out over 8 physical levels and wait for the slowest while
		// writes are cheap: the inverse cost profile of 1-3-5.
		spec:          "1-2-2-2-2-2-2-2-2",
		readShare:     0.50,
		keys:          8192,
		valueSize:     128,
		segmentOps:    4400,
		preloadPasses: 1,
	},
	{
		name: "large-value",
		// Bytes, not messages: store copies, codec work on big payloads, TCP
		// framing and GC dominate while per-message fixed cost is small.
		spec:          "1-3-5",
		readShare:     0.90,
		keys:          1024,
		valueSize:     16 << 10,
		segmentOps:    10400,
		preloadPasses: 5,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// scaledSegmentOps is the op count of one segment for a -seconds value. It
// is even, so the callers split it exactly.
func (w workloadDef) scaledSegmentOps(seconds int) int {
	n := w.segmentOps * seconds / refSeconds
	n -= n % callers
	if n < callers {
		n = callers
	}
	return n
}
