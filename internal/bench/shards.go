package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/trace"
)

// Shards ablation: the same state-heavy workload through Driver.Run at
// increasing shard counts. The workload is a heavily fragmented allocation
// map — tens of thousands of disjoint small slots, so the SOS holds one
// interval per slot — with random accesses on two threads; this is the
// regime sharding targets, where the per-epoch LSOS clones and SOS folds
// dominate and each shard touches only 1/K of the interval metadata. Reports
// and the final SOS are identical at every shard count (the differential
// suite proves this); only the schedule changes.

// ShardRow is one shard count of the ablation.
type ShardRow struct {
	Shards  int
	Events  int
	Time    time.Duration // best wall time over the repetitions
	Reports int
}

// EventsPerSec is the row's throughput.
func (r *ShardRow) EventsPerSec() float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(r.Events) / r.Time.Seconds()
}

// shardWorkloadGrid builds the fragmented-heap workload: each of two threads
// allocates its half of `slots` disjoint 8-byte slots at stride 16, then
// performs `accesses` random reads/writes over the whole heap.
func shardWorkloadGrid(slots, accesses, h int, seed int64) (*epoch.Grid, error) {
	const (
		base   = 0x10000
		stride = 16
		size   = 8
	)
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(2)
	for t := 0; t < 2; t++ {
		b.T(trace.ThreadID(t))
		lo, hi := t*slots/2, (t+1)*slots/2
		for i := lo; i < hi; i++ {
			b.Alloc(base+uint64(i)*stride, size)
		}
		for i := 0; i < accesses; i++ {
			a := base + uint64(rng.Intn(slots))*stride
			if rng.Intn(4) == 0 {
				b.Write(a, size)
			} else {
				b.Read(a, size)
			}
		}
	}
	return epoch.ChunkByCount(b.Build(), h)
}

// ShardAblation measures the workload at every shard count, reps times each
// (best time wins). Shard counts default to 1, 2, 4, 8 when nil.
func ShardAblation(o Options, shardCounts []int, reps int) ([]ShardRow, error) {
	if shardCounts == nil {
		shardCounts = []int{1, 2, 4, 8}
	}
	if reps < 1 {
		reps = 1
	}
	g, err := shardWorkloadGrid(o.scaled(1<<20), o.scaled(256<<10), 100, o.Seed)
	if err != nil {
		return nil, err
	}
	var rows []ShardRow
	for _, k := range shardCounts {
		row := ShardRow{Shards: k, Events: g.TotalEvents()}
		for i := 0; i < reps; i++ {
			d := &core.Driver{LG: addrcheck.New(0), Parallel: o.Parallel, Shards: k}
			start := time.Now()
			res := d.Run(g)
			elapsed := time.Since(start)
			if i == 0 || elapsed < row.Time {
				row.Time = elapsed
			}
			row.Reports = len(res.Reports)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderShardAblation prints the ablation rows with speedups over the first
// (usually unsharded) row.
func RenderShardAblation(rows []ShardRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: address-sharded lifeguard state (fragmented-heap workload, 2 threads)\n")
	fmt.Fprintf(&b, "%-7s %9s %11s %12s %8s %8s\n",
		"shards", "events", "time", "events/s", "speedup", "reports")
	var baseRate float64
	for i := range rows {
		r := &rows[i]
		rate := r.EventsPerSec()
		if i == 0 {
			baseRate = rate
		}
		speedup := 0.0
		if baseRate > 0 {
			speedup = rate / baseRate
		}
		fmt.Fprintf(&b, "%-7d %9d %11s %12.0f %7.2fx %8d\n",
			r.Shards, r.Events, r.Time.Round(time.Microsecond), rate, speedup, r.Reports)
	}
	return b.String()
}
