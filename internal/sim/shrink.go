package sim

import "arbor/internal/cluster"

// Shrink minimizes a failing input with delta debugging: first over the
// fault events, then over the workload ops, then the events once more
// (removing ops often unlocks further event removals). Ops keep their
// original Index, so event ticks and generated write values stay aligned
// however much of the stream is cut away. Phase markers do nothing, so they
// are no part of the failure: they all stay, which is what lets a replay
// that derives them again (scenario.FromInput) reproduce the shrunk trace
// line for line. The result still fails — every candidate is re-executed —
// and is returned unchanged if the input does not fail to begin with.
func Shrink(in Input) Input {
	fails := func(c Input) bool {
		res, err := Execute(c)
		return err == nil && res.Failed()
	}
	if !fails(in) {
		return in
	}
	markers := countMarkers(in.Events)
	shrinkEvents := func(in Input) Input {
		in.Events = shrinkSlice(in.Events, func(evs []cluster.Event) bool {
			c := in
			c.Events = evs
			return countMarkers(evs) == markers && fails(c)
		})
		return in
	}
	in = shrinkEvents(in)
	in.Ops = shrinkSlice(in.Ops, func(ops []OpSpec) bool {
		c := in
		c.Ops = ops
		return fails(c)
	})
	return shrinkEvents(in)
}

func countMarkers(evs []cluster.Event) int {
	n := 0
	for _, ev := range evs {
		if IsMarker(ev) {
			n++
		}
	}
	return n
}

// shrinkSlice is ddmin: it partitions items into n chunks and tries
// dropping one chunk at a time, re-running the oracle on each candidate;
// on success it restarts with the smaller slice, otherwise it doubles the
// granularity until chunks are single elements. The returned slice still
// satisfies fails (assuming the input did).
func shrinkSlice[T any](items []T, fails func([]T) bool) []T {
	n := 2
	for len(items) > 1 && n <= len(items) {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for start := 0; start < len(items); start += chunk {
			cand := make([]T, 0, len(items))
			cand = append(cand, items[:start]...)
			if start+chunk < len(items) {
				cand = append(cand, items[start+chunk:]...)
			}
			if fails(cand) {
				items = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(items) {
				break
			}
			n *= 2
			if n > len(items) {
				n = len(items)
			}
		}
	}
	if len(items) == 1 && fails(nil) {
		return nil
	}
	return items
}
