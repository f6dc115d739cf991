package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers every non-negative int64: bucket i holds values whose
// bit length is i, i.e. bucket 0 = {0} and bucket i = [2^(i−1), 2^i) for
// i ≥ 1. Power-of-two buckets give ≤ 2× relative error on quantiles with a
// single bits.Len64 on the record path — no search, no configuration.
const numBuckets = 64

// Histogram is a fixed-bucket histogram of non-negative int64 values with
// power-of-two bucket bounds. Recording is wait-free (three atomic adds
// plus a CAS max); reads are approximate under concurrent writes, which is
// fine for monitoring. The zero value is ready to use; a nil *Histogram
// ignores writes and reads as zero. A histogram resolved through a scoped
// registry chains to its parent: one ObserveInt records into the scoped
// series and every enclosing aggregate.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
	parent  *Histogram
}

// Observe records a duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) { h.ObserveInt(int64(d)) }

// ObserveInt records a value (negative values clamp to zero) into h and
// its scope parents.
func (h *Histogram) ObserveInt(v int64) {
	if v < 0 {
		v = 0
	}
	bucket := bits.Len64(uint64(v))
	for ; h != nil; h = h.parent {
		h.count.Add(1)
		h.sum.Add(v)
		for {
			cur := h.max.Load()
			if v <= cur || h.max.CompareAndSwap(cur, v) {
				break
			}
		}
		h.buckets[bucket].Add(1)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1): the
// upper bound of the bucket containing the rank-⌈qN⌉ observation, capped
// at the observed maximum. The bound is within 2× of the true quantile.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	var counts [numBuckets]int64
	n := h.snapshotBuckets(&counts)
	return quantileFromBuckets(&counts, n, h.max.Load(), q)
}

// Quantiles computes several quantiles (e.g. p50/p95/p99) from one
// consistent snapshot of the bucket counts — the helper behind the
// /sessions latency columns and Snapshot. Returns one upper bound per q,
// in order; all zeros on a nil or empty histogram.
func (h *Histogram) Quantiles(qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if h == nil {
		return out
	}
	var counts [numBuckets]int64
	n := h.snapshotBuckets(&counts)
	max := h.max.Load()
	for i, q := range qs {
		out[i] = quantileFromBuckets(&counts, n, max, q)
	}
	return out
}

// snapshotBuckets copies the bucket counts into counts and returns their
// sum — the observation count as of the snapshot, self-consistent even
// under concurrent writes (unlike pairing h.count with live bucket reads).
func (h *Histogram) snapshotBuckets(counts *[numBuckets]int64) int64 {
	var n int64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		counts[i] = c
		n += c
	}
	return n
}

// quantileFromBuckets is the shared rank walk over a bucket snapshot.
func quantileFromBuckets(counts *[numBuckets]int64, n, max int64, q float64) int64 {
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			var hi int64
			if i > 0 {
				hi = int64(1)<<uint(i) - 1
			}
			if hi > max {
				hi = max
			}
			return hi
		}
	}
	return max
}

// Buckets returns the non-cumulative bucket counts along with each
// bucket's inclusive upper bound, skipping empty buckets. Used by the
// Prometheus exposition.
func (h *Histogram) Buckets() (bounds, counts []int64) {
	if h == nil {
		return nil, nil
	}
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		var hi int64
		if i > 0 {
			hi = int64(1)<<uint(i) - 1
		}
		bounds = append(bounds, hi)
		counts = append(counts, c)
	}
	return bounds, counts
}
