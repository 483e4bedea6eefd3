package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the number of finite histogram buckets. Bucket i holds
// observations d with bound(i-1) < d <= bound(i), where
// bound(i) = 1µs · 2^i, spanning 1µs .. ~33.6s; larger observations land in
// the +Inf overflow bucket.
const numBuckets = 26

// bucketBound returns the upper bound of finite bucket i.
func bucketBound(i int) time.Duration {
	return time.Microsecond << uint(i)
}

// bucketIndex returns the bucket an observation belongs to (numBuckets for
// the +Inf overflow bucket).
func bucketIndex(d time.Duration) int {
	n := d.Nanoseconds()
	if n <= 1000 {
		return 0
	}
	q := uint64(n+999) / 1000 // ceil to whole microseconds
	idx := bits.Len64(q - 1)  // ceil(log2(q))
	if idx >= numBuckets {
		return numBuckets
	}
	return idx
}

// Histogram is a log-bucketed latency histogram: exponential (power-of-two)
// buckets from 1µs to ~33.6s plus an overflow bucket, all updated with a
// single atomic add per observation.
type Histogram struct {
	counts [numBuckets + 1]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

func newHistogram() *Histogram { return &Histogram{} }

// Observe records one latency sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations (0 on a nil receiver).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// inside the bucket containing the target rank. Observations beyond the
// last finite bound are reported as that bound. Returns 0 when empty or on
// a nil receiver.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i <= numBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if cum+n >= target {
			if i == numBuckets {
				return bucketBound(numBuckets - 1)
			}
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketBound(i - 1)
			}
			upper := bucketBound(i)
			frac := float64(target-cum) / float64(n)
			return lower + time.Duration(frac*float64(upper-lower))
		}
		cum += n
	}
	return bucketBound(numBuckets - 1)
}

// BucketCount is one bucket of a histogram snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound; 0 marks +Inf.
	UpperBound time.Duration
	// Count is the number of observations in this bucket (not cumulative).
	Count uint64
}

// Snapshot returns the per-bucket counts, total count and sum.
func (h *Histogram) Snapshot() (buckets []BucketCount, count uint64, sum time.Duration) {
	if h == nil {
		return nil, 0, 0
	}
	buckets = make([]BucketCount, 0, numBuckets+1)
	for i := 0; i < numBuckets; i++ {
		buckets = append(buckets, BucketCount{UpperBound: bucketBound(i), Count: h.counts[i].Load()})
	}
	buckets = append(buckets, BucketCount{UpperBound: 0, Count: h.counts[numBuckets].Load()})
	return buckets, h.count.Load(), h.Sum()
}

// write renders the histogram in Prometheus exposition format under the
// family name, merging the given label prefix into each le label.
func (h *Histogram) write(w io.Writer, name, labels string) error {
	joiner := func(le string) string {
		if labels == "" {
			return fmt.Sprintf(`{le="%s"}`, le)
		}
		return fmt.Sprintf(`%s,le="%s"}`, labels[:len(labels)-1], le)
	}
	var cum uint64
	for i := 0; i <= numBuckets; i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < numBuckets {
			le = formatFloat(bucketBound(i).Seconds())
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joiner(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum().Seconds())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
	return err
}
