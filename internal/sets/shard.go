package sets

// Address-range sharding. The butterfly lifeguards keep their strongly
// ordered state (SOS) and their SIDE-OUT/SIDE-IN summaries in address-indexed
// sets; every dataflow equation in the framework (GEN, KILL, LSOS, the epoch
// summaries of §5.1/§5.2) is elementwise over facts or bytes. Membership of a
// fact in any derived set therefore depends only on that fact's membership in
// the inputs, so the whole state layer can be partitioned into K disjoint
// address shards and each shard advanced by an independent task with no
// shared mutable maps. This file provides the two partition functions the
// sharded driver mode (core.Driver.Shards, DESIGN.md §11) builds on, plus the
// interval split/merge container; the per-shard state and summary containers
// themselves are core.ShardedState and core.ShardedSummary.
//
// Two partition schemes exist because the two set families index differently:
//
//   - Point facts (definition IDs, expression IDs) are sharded by a mixed
//     hash, ShardOf, so dense ID ranges and clustered addresses both balance.
//
//   - Byte intervals are sharded by address granule: the address space is cut
//     into ShardGranule-byte granules dealt round-robin to the shards
//     (ShardOfAddr). Granules keep small event ranges in a single shard
//     (no per-byte fragmentation of IntervalSets) while still interleaving a
//     clustered heap across all K shards.
//
// Both functions are pure: the partition depends only on (address, K), never
// on insertion order or a seed, which is what makes shard-count a provable
// no-op on results (the shard-invariance differential suite).

// ShardGranule is the byte granularity of interval sharding: addresses in
// the same granule always land in the same shard, so an event range of up to
// ShardGranule bytes decomposes into at most two pieces.
const ShardGranule = 64

// ShardOf maps a point fact (a packed ID or an address) to a shard in
// [0, K). The value is mixed (splitmix64 finalizer) so that dense ID spaces
// and power-of-two-strided addresses spread evenly for any K.
func ShardOf(x uint64, K int) int {
	if K <= 1 {
		return 0
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(K))
}

// ShardOfAddr maps a byte address to its interval shard in [0, K): granules
// are dealt round-robin.
func ShardOfAddr(addr uint64, K int) int {
	if K <= 1 {
		return 0
	}
	return int((addr / ShardGranule) % uint64(K))
}

// SingleShardOfRange returns the interval shard holding all of [lo, hi) and
// true when the range lies within one granule — the fast path for the small
// event ranges that dominate traces. ok is false when the range is empty or
// spans a granule boundary (the range may still be single-shard when K == 1
// or granules coincide; callers fall back to ForEachShardPiece).
func SingleShardOfRange(lo, hi uint64, K int) (shard int, ok bool) {
	if hi <= lo {
		return 0, false
	}
	if K <= 1 {
		return 0, true
	}
	if lo/ShardGranule != (hi-1)/ShardGranule {
		return 0, false
	}
	return ShardOfAddr(lo, K), true
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

// Merge returns the union of all shards as one plain IntervalSet, coalesced
// back into maximal intervals — byte-identical to the unsharded set. The
// shards' intervals are granule-interleaved, so unioning them one AddRange
// at a time would shift the tail on every insert (quadratic); instead each
// shard's already-sorted run is folded in with one linear coalescing merge
// over pooled scratch.
func (si ShardedIntervals) Merge() *IntervalSet {
	out := NewIntervalSet()
	si.MergeInto(out)
	return out
}

// MergeInto is Merge writing into an existing set, reusing dst's storage.
// dst's prior contents are discarded.
func (si ShardedIntervals) MergeInto(dst *IntervalSet) {
	total := 0
	for _, s := range si {
		total += len(s.ivs)
	}
	if total == 0 {
		dst.Reset()
		return
	}
	acc := getBacking(total)
	scratch := getBacking(total)
	for _, s := range si {
		if len(s.ivs) == 0 {
			continue
		}
		scratch = mergeUnion(scratch[:0], acc, s.ivs)
		acc, scratch = scratch, acc
	}
	putBacking(scratch)
	dst.adoptSorted(acc)
}
