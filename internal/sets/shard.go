package sets

// Granule-interleaved interval partitions. The engine does not use them
// (DESIGN.md §11): their one caller is the benchmark program's
// sets.split_merge_ns.fragmented row, which times IntervalSet.Split and
// ShardedIntervals.MergeInto.
//
// The address space is cut into ShardGranule-byte granules dealt
// round-robin to K parts (ShardOfAddr). The partition is a pure function of
// (address, K): splitting and merging back is the identity.

// ShardGranule is the byte granularity of the partition: addresses in the
// same granule always land in the same part, so a range of up to
// ShardGranule bytes decomposes into at most two pieces.
const ShardGranule = 64

// ShardOfAddr maps a byte address to its interval shard in [0, K): granules
// are dealt round-robin.
func ShardOfAddr(addr uint64, K int) int {
	if K <= 1 {
		return 0
	}
	return int((addr / ShardGranule) % uint64(K))
}

// ForEachShardPiece calls f for every maximal sub-range of [lo, hi) that
// belongs to shard k of K, in ascending address order. The pieces over all k
// partition [lo, hi); granules belonging to other shards are skipped in O(1)
// each (iteration cost is proportional to the pieces of shard k, not to the
// whole range).
func ForEachShardPiece(k, K int, lo, hi uint64, f func(lo, hi uint64)) {
	if hi <= lo {
		return
	}
	if K <= 1 {
		f(lo, hi)
		return
	}
	g0 := lo / ShardGranule
	g1 := (hi - 1) / ShardGranule
	// First granule >= g0 assigned to shard k.
	delta := (uint64(k) - g0%uint64(K) + uint64(K)) % uint64(K)
	for g := g0 + delta; g <= g1; g += uint64(K) {
		plo, phi := g*ShardGranule, (g+1)*ShardGranule
		if plo < lo {
			plo = lo
		}
		if phi > hi {
			phi = hi
		}
		f(plo, phi)
	}
}

// ShardedIntervals is a byte set partitioned by granule (ShardOfAddr):
// shard k covers exactly the bytes whose granule is dealt to k.
type ShardedIntervals []*IntervalSet

// NewShardedIntervals returns K empty shards.
func NewShardedIntervals(K int) ShardedIntervals {
	si := make(ShardedIntervals, K)
	for k := range si {
		si[k] = NewIntervalSet()
	}
	return si
}

// Split partitions s into K granule-interleaved shards.
func (s *IntervalSet) Split(K int) ShardedIntervals {
	si := NewShardedIntervals(K)
	for _, iv := range s.ivs {
		for k := 0; k < K; k++ {
			ForEachShardPiece(k, K, iv.Lo, iv.Hi, func(lo, hi uint64) {
				si[k].AddRange(lo, hi)
			})
		}
	}
	return si
}

// MergeInto writes the union of all shards into dst as one plain
// IntervalSet, coalesced back into maximal intervals — byte-identical to the
// unsharded set — reusing dst's storage; dst's prior contents are discarded.
// The shards' intervals are granule-interleaved, so unioning them one
// AddRange at a time would shift the tail on every insert (quadratic);
// instead each shard's already-sorted run is folded in with one linear
// coalescing merge inside dst's backing.
func (si ShardedIntervals) MergeInto(dst *IntervalSet) {
	dst.assign(nil)
	for _, s := range si {
		dst.UnionInPlace(s)
	}
}
