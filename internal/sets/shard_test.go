package sets

import (
	"math/rand"
	"testing"
)

func TestShardOfRangeAndStability(t *testing.T) {
	for _, K := range []int{1, 2, 3, 8} {
		for _, x := range []uint64{0, 1, 63, 64, 0x100, 0xdeadbeef, ^uint64(0)} {
			k := ShardOf(x, K)
			if k < 0 || k >= K {
				t.Fatalf("ShardOf(%#x, %d) = %d out of range", x, K, k)
			}
			if k2 := ShardOf(x, K); k2 != k {
				t.Fatalf("ShardOf not deterministic: %d vs %d", k, k2)
			}
		}
	}
	if ShardOf(12345, 1) != 0 {
		t.Fatal("K=1 must map everything to shard 0")
	}
}

func TestShardOfBalance(t *testing.T) {
	// Dense IDs and 16-byte-strided addresses must both spread: no shard may
	// hold more than twice its fair share.
	for _, K := range []int{2, 3, 8} {
		for name, gen := range map[string]func(i int) uint64{
			"dense":   func(i int) uint64 { return uint64(i) },
			"strided": func(i int) uint64 { return 0x10000 + uint64(i)*16 },
		} {
			counts := make([]int, K)
			const N = 4096
			for i := 0; i < N; i++ {
				counts[ShardOf(gen(i), K)]++
			}
			for k, c := range counts {
				if c > 2*N/K {
					t.Errorf("K=%d %s: shard %d holds %d of %d", K, name, k, c, N)
				}
			}
		}
	}
}

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

func TestSingleShardOfRange(t *testing.T) {
	if _, ok := SingleShardOfRange(10, 10, 4); ok {
		t.Fatal("empty range must not be single-shard")
	}
	if k, ok := SingleShardOfRange(0x40, 0x48, 4); !ok || k != ShardOfAddr(0x40, 4) {
		t.Fatalf("in-granule range: got (%d, %v)", k, ok)
	}
	if _, ok := SingleShardOfRange(0x3e, 0x42, 4); ok {
		t.Fatal("granule-spanning range must not be single-shard")
	}
	if k, ok := SingleShardOfRange(0x3e, 0x142, 1); !ok || k != 0 {
		t.Fatal("K=1 is always single-shard")
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
		if !si.Merge().Equal(s) {
			t.Fatalf("K=%d: merge != original", K)
		}
		if pieces < s.NumIntervals() {
			t.Fatalf("K=%d: sharding cannot lose intervals", K)
		}
	}
}
