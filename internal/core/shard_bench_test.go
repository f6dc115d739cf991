package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/trace"
)

// shardBenchGrid builds a workload whose cost is dominated by per-shard
// state work: a heavily fragmented allocation map (20k disjoint 8-byte slots
// at stride 16, so the SOS holds ~20k intervals) with random accesses on two
// threads. Sharding splits the interval metadata K ways, so the per-epoch
// LSOS clones and SOS folds each touch 1/K of the state.
func shardBenchGrid(tb testing.TB) *epoch.Grid {
	const (
		base   = 0x10000
		slots  = 40000
		stride = 16
		size   = 8
	)
	rng := rand.New(rand.NewSource(7))
	b := trace.NewBuilder(2)
	for t := 0; t < 2; t++ {
		b.T(trace.ThreadID(t))
		lo, hi := t*slots/2, (t+1)*slots/2
		for i := lo; i < hi; i++ {
			b.Alloc(base+uint64(i)*stride, size)
		}
		for i := 0; i < 5000; i++ {
			a := base + uint64(rng.Intn(slots))*stride
			if rng.Intn(4) == 0 {
				b.Write(a, size)
			} else {
				b.Read(a, size)
			}
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 100)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkShardedThroughput is the shards ablation: the same grid through
// parallel Driver.Run at increasing shard counts. Reported in
// EXPERIMENTS.md ("Address sharding" for the shard-count shape,
// "Allocation ablation" for pooled-vs-unpooled at each count).
func BenchmarkShardedThroughput(b *testing.B) {
	g := shardBenchGrid(b)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d := &core.Driver{LG: addrcheck.New(0), Parallel: true, Shards: shards}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Run(g)
			}
			b.ReportMetric(float64(g.TotalEvents())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
