package core_test

// End-to-end driver benchmark: encoded stream bytes in, reports out. The
// pipeline decodes epoch frames incrementally and runs the pipelined engine
// (AddrCheck over an allocation-churn workload).

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/trace"
)

// benchEpochSize keeps epochs small enough that the benchmark grids have
// dozens of epochs — the regime where per-epoch scheduling overhead shows.
const benchEpochSize = 512

// benchTrace builds an AddrCheck workload shaped like the paper's apps:
// each thread allocates a private slot region up front, then mostly reads
// and writes its own slots plus occasional reads of other threads' regions,
// with rare reallocation of a private slot. Allocation churn is low, so —
// as in the paper's race-free benchmarks — reports are rare and the
// benchmark measures the drivers, not report formatting.
func benchTrace(nthreads, perThread int, seed int64) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	const (
		heapBase  = 0x10000
		slots     = 64 // private slots per thread
		slotSize  = 64
		threadSpc = slots * slotSize
	)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		rng := rand.New(rand.NewSource(seed ^ int64(t)<<16))
		base := uint64(heapBase + t*threadSpc)
		own := func() uint64 { return base + uint64(rng.Intn(slots))*slotSize }
		any := func() uint64 {
			return heapBase + uint64(rng.Intn(nthreads*slots))*slotSize
		}
		for s := 0; s < slots; s++ {
			b.Alloc(base+uint64(s)*slotSize, slotSize)
		}
		for i := slots; i < perThread; i++ {
			switch rng.Intn(64) {
			case 0:
				s := own()
				b.Free(s, slotSize)
				b.Alloc(s, slotSize)
				i++
			case 1, 2, 3, 4, 5, 6:
				b.Read(any(), uint64(1+rng.Intn(slotSize)))
			case 7, 8, 9, 10, 11, 12, 13, 14, 15, 16:
				b.Write(own(), uint64(1+rng.Intn(slotSize)))
			default:
				b.Read(own(), uint64(1+rng.Intn(slotSize)))
			}
		}
	}
	return b.Build()
}

// benchBytes encodes the workload in the streaming wire format.
func benchBytes(tb testing.TB, nthreads int) []byte {
	tb.Helper()
	g, err := epoch.ChunkByCount(benchTrace(nthreads, 131072, 1), benchEpochSize)
	if err != nil {
		tb.Fatal(err)
	}
	var sb bytes.Buffer
	if err := epoch.WriteStream(&sb, g); err != nil {
		tb.Fatal(err)
	}
	return sb.Bytes()
}

func BenchmarkDriverStream(b *testing.B) {
	for _, nthreads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", nthreads), func(b *testing.B) {
			data := benchBytes(b, nthreads)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr, err := trace.NewStreamReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				res, err := (&core.Driver{LG: addrcheck.New(0), Parallel: true}).RunStream(epoch.NewStreamRows(sr))
				if err != nil {
					b.Fatal(err)
				}
				if res.Events == 0 {
					b.Fatal("empty run")
				}
			}
		})
	}
}

// BenchmarkTickGrain is the sweep behind tickGrain (EXPERIMENTS.md
// "Grain-adaptive ticks"): a Parallel driver with every tick pinned inline
// against the same driver with every tick pinned to its workers, over
// block size h, thread count T, all four lifeguards and one or two drivers
// running at once (two sessions of a server). Each driver analyzes
// max(8 Ki, 64·h) events a thread, so every cell runs at least 64 epochs
// and measures a warm engine rather than its first epochs' storage growth;
// the ns/event metric is wall time over all drivers' events, so two
// drivers that scale perfectly on two cores halve it. The recorded table
// takes the smaller of the two counts of each cell:
//
//	go test ./internal/core -run XXX -bench TickGrain -benchtime 20x -count 2
func BenchmarkTickGrain(b *testing.B) {
	const minEvents, minEpochs = 8192, 64
	traces := map[string]func(T, perThread int) *trace.Trace{
		"addrcheck":  func(T, n int) *trace.Trace { return steadyTrace(T, n, 32, 64) },
		"memcheck":   func(T, n int) *trace.Trace { return steadyTrace(T, n, 32, 64) },
		"taintcheck": taintTrace,
		"lockset":    lockTrace,
	}
	for _, lgName := range []string{"addrcheck", "memcheck", "taintcheck", "lockset"} {
		for _, T := range []int{2, 4, 8} {
			for _, h := range []int{16, 32, 64, 128, 256, 512, 1024} {
				g := chunk(b, traces[lgName](T, max(minEvents, minEpochs*h)), h)
				for _, drivers := range []int{1, 2} {
					for _, sc := range schedules[1:] { // inline, fanout
						name := fmt.Sprintf("%s/T=%d/h=%d/drivers=%d/%s", lgName, T, h, drivers, sc.name)
						b.Run(name, func(b *testing.B) {
							benchTickGrain(b, g, lifeguards[lgName], sc.s, drivers)
						})
					}
				}
			}
		}
	}
}

func benchTickGrain(b *testing.B, g *epoch.Grid, mk func() core.Lifeguard, s core.TickSchedule, drivers int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for k := 0; k < drivers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parallelDriver(mk(), s).Run(g)
			}()
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*drivers*g.TotalEvents()), "ns/event")
}
