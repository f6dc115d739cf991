package sets

import (
	"math/rand"
	"testing"
)

func TestShardOfAddrGranules(t *testing.T) {
	// All addresses within one granule share a shard; adjacent granules
	// rotate round-robin.
	for _, K := range []int{2, 3, 8} {
		base := uint64(0x4000)
		k0 := ShardOfAddr(base, K)
		for off := uint64(0); off < ShardGranule; off++ {
			if ShardOfAddr(base+off, K) != k0 {
				t.Fatalf("K=%d: granule not shard-uniform at +%d", K, off)
			}
		}
		if got := ShardOfAddr(base+ShardGranule, K); got != (k0+1)%K {
			t.Fatalf("K=%d: next granule shard = %d, want %d", K, got, (k0+1)%K)
		}
	}
}

func TestForEachShardPiecePartition(t *testing.T) {
	// The pieces over all k must partition the range exactly, in order, and
	// each piece must be shard-pure.
	rng := rand.New(rand.NewSource(1))
	for _, K := range []int{1, 2, 3, 8} {
		for trial := 0; trial < 200; trial++ {
			lo := uint64(rng.Intn(1 << 12))
			hi := lo + uint64(rng.Intn(1<<10))
			covered := make(map[uint64]int)
			for k := 0; k < K; k++ {
				prev := uint64(0)
				ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					if phi <= plo {
						t.Fatalf("empty piece [%#x,%#x)", plo, phi)
					}
					if plo < lo || phi > hi {
						t.Fatalf("piece [%#x,%#x) outside [%#x,%#x)", plo, phi, lo, hi)
					}
					if plo < prev {
						t.Fatalf("pieces out of order")
					}
					prev = phi
					for a := plo; a < phi; a++ {
						if k2, seen := covered[a]; seen {
							t.Fatalf("addr %#x in shards %d and %d", a, k2, k)
						}
						covered[a] = k
						if ShardOfAddr(a, K) != k {
							t.Fatalf("addr %#x in piece of shard %d, owner %d",
								a, k, ShardOfAddr(a, K))
						}
					}
				})
			}
			if uint64(len(covered)) != hi-lo {
				t.Fatalf("K=%d: covered %d of %d bytes", K, len(covered), hi-lo)
			}
		}
	}
}

func TestShardedIntervalsSplitMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewIntervalSet()
	for i := 0; i < 200; i++ {
		lo := uint64(rng.Intn(1 << 14))
		s.AddRange(lo, lo+1+uint64(rng.Intn(300)))
	}
	for _, K := range []int{1, 2, 3, 8} {
		si := s.Split(K)
		if len(si) != K {
			t.Fatalf("Split(%d) gave %d shards", K, len(si))
		}
		var total uint64
		pieces := 0
		for k, shard := range si {
			total += shard.Bytes()
			pieces += shard.NumIntervals()
			for _, iv := range shard.Intervals() {
				for a := iv.Lo; a < iv.Hi; a++ {
					if ShardOfAddr(a, K) != k {
						t.Fatalf("byte %#x in wrong shard %d", a, k)
					}
				}
			}
		}
		if total != s.Bytes() {
			t.Fatalf("K=%d: %d bytes across shards, want %d", K, total, s.Bytes())
		}
		merged := NewIntervalSet()
		si.MergeInto(merged)
		if !merged.Equal(s) {
			t.Fatalf("K=%d: merge != original", K)
		}
		if pieces < s.NumIntervals() {
			t.Fatalf("K=%d: sharding cannot lose intervals", K)
		}
	}
}
