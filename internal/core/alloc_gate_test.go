package core_test

// The steady-state allocation gate (ISSUE: zero-allocation steady state).
// After the sliding window fills and the pools warm up, feeding one more
// epoch through the serial incremental driver must cost at most a small
// fixed number of heap allocations, independent of how long the run has
// been going. This is the property that keeps GC pauses off the
// monitoring path; `make bench-alloc` enforces the same budget on the
// full client/server stack via -benchmem.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/lockset"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// steadyAllocBudget is the per-epoch heap-allocation budget once warm.
// Measured ~0-2 on the serial driver (pool misses on rare interval-set
// growth); the headroom keeps the gate from flaking on GC bookkeeping,
// while still catching any reintroduced per-epoch allocation (a single
// make per epoch shows up as +1 and a per-block one as +T).
const steadyAllocBudget = 8

// steadyGrid builds a report-free AddrCheck workload: every thread
// allocates its slots up front, then reads and writes only allocated
// memory, with occasional free/realloc churn so interval kernels do real
// work. No reports means the gate measures the driver, not report
// formatting. Slots are 64 bytes, one every pitch bytes: at pitch 64 a
// thread's slots coalesce and the SOS is a handful of intervals that never
// leave inline storage; at a wider pitch every slot is an interval of its
// own and the SOS is nthreads × slots intervals on pooled heap backings.
func steadyGrid(tb testing.TB, nthreads, perThread, slots int, pitch uint64) *epoch.Grid {
	tb.Helper()
	b := trace.NewBuilder(nthreads)
	const (
		heapBase = 0x10000
		slotSize = 64
	)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		rng := rand.New(rand.NewSource(int64(t + 1)))
		base := heapBase + uint64(t*slots)*pitch
		own := func() uint64 { return base + uint64(rng.Intn(slots))*pitch }
		for s := 0; s < slots; s++ {
			b.Alloc(base+uint64(s)*pitch, slotSize)
		}
		for i := slots; i < perThread; i++ {
			switch rng.Intn(32) {
			case 0:
				s := own()
				b.Free(s, slotSize)
				b.Alloc(s, slotSize)
				i++
			case 1, 2, 3, 4, 5, 6, 7, 8, 9:
				b.Write(own(), uint64(1+rng.Intn(slotSize)))
			default:
				b.Read(own(), uint64(1+rng.Intn(slotSize)))
			}
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 64)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// lockGrid builds a report-free lockset workload shaped like the
// benchmark's genLockset: 4096 bytes, byte v guarded by lock v mod 64 and
// only ever accessed inside a critical section of that lock (1–4 accesses
// per section), at h = 256. As there, a prologue has every byte written under
// its lock by one thread and read by another, so the candidates are all made
// during the warm-up and the measured epochs only confirm them.
func lockGrid(tb testing.TB, nthreads, perThread int) *epoch.Grid {
	tb.Helper()
	const locs, locks = 4096, 64
	lock := func(k int) uint64 { return 0x8000 + uint64(k)*8 }
	b := trace.NewBuilder(nthreads)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < locks; k++ {
				if (k+pass)%nthreads != t {
					continue
				}
				b.Lock(lock(k))
				for v := k; v < locs; v += locks {
					if pass == 0 {
						b.Write(0x10000+uint64(v), 1)
					} else {
						b.Read(0x10000+uint64(v), 1)
					}
				}
				b.Unlock(lock(k))
			}
		}
		rng := rand.New(rand.NewSource(int64(t + 1)))
		for i := 0; i < perThread; {
			k := rng.Intn(locks)
			b.Lock(lock(k))
			n := 1 + rng.Intn(4)
			for j := 0; j < n; j++ {
				v := 0x10000 + uint64(rng.Intn(locs/locks)*locks+k)
				if rng.Intn(5) < 2 {
					b.Write(v, 1)
				} else {
					b.Read(v, 1)
				}
			}
			b.Unlock(lock(k))
			i += n + 2
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 256)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestSteadyStateAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instruments allocations; counts are not meaningful")
	}
	const T = 4
	// 128 epochs of 64 events/thread, over a coalesced heap and over a
	// fragmented one whose SOS is 640 intervals: there every generation and
	// every kernel scratch is a pooled heap backing, beside the few-interval
	// sets of the LSOS views.
	compact := steadyGrid(t, T, 8192, 32, 64)
	fragmented := steadyGrid(t, T, 8192, 160, 128)
	// The lock grid's prologue is 2,112 events a thread (9 epochs at
	// h = 256), all of it inside the warm-up below.
	locked := lockGrid(t, T, 128*256)
	addr := func() core.Lifeguard { return addrcheck.New(0) }
	locks := func() core.Lifeguard { return lockset.New() }
	for _, tc := range []struct {
		name string
		g    *epoch.Grid
		lg   func() core.Lifeguard
		d    core.Driver
	}{
		{"serial", compact, addr, core.Driver{}},
		{"served", compact, addr, core.Driver{Parallel: true}},
		{"fragmented/serial", fragmented, addr, core.Driver{}},
		{"fragmented/served", fragmented, addr, core.Driver{Parallel: true}},
		{"lockset/serial", locked, locks, core.Driver{}},
		{"lockset/parallel", locked, locks, core.Driver{Parallel: true}},
	} {
		g := tc.g
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			d.LG = tc.lg()
			inc, err := d.NewIncrementalTrimmed(T)
			if err != nil {
				t.Fatal(err)
			}
			defer inc.Close()

			// Feed through the same pooled-row path the server uses:
			// decode-style copy into recycled backings, stamp, feed, and let
			// the driver hand rows back to the pool as the window slides.
			var pool epoch.RowPool
			rb := epoch.NewRowBuilder(T)
			inc.SetRowRecycler(pool.Put)
			feed := func(l int) {
				blocks := pool.Get(T)
				for t2, b := range blocks {
					b.Events = append(b.Events[:0], g.Blocks[l][t2].Events...)
				}
				rb.Stamp(blocks)
				if _, err := inc.FeedEpoch(blocks); err != nil {
					t.Fatalf("epoch %d: %v", l, err)
				}
			}

			const warm = 32
			if g.NumEpochs() < warm+16 {
				t.Fatalf("grid too short: %d epochs", g.NumEpochs())
			}
			for l := 0; l < warm; l++ {
				feed(l)
			}
			measured := g.NumEpochs() - warm
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for l := warm; l < g.NumEpochs(); l++ {
				feed(l)
			}
			runtime.ReadMemStats(&after)
			perEpoch := float64(after.Mallocs-before.Mallocs) / float64(measured)
			t.Logf("steady state: %.2f allocs/epoch over %d epochs (budget %v)",
				perEpoch, measured, steadyAllocBudget)
			if perEpoch > steadyAllocBudget {
				t.Fatalf("steady-state allocations regressed: %.2f allocs/epoch exceeds budget %v",
					perEpoch, steadyAllocBudget)
			}
		})
	}
}

// TestFirstPassIndependentOfStateSize is the gate on what the LSOS view
// bought: the first pass costs what its block costs, not what the SOS
// holds. One fixed block — free/realloc churn and accesses over 1 Ki heap
// slots — runs against a 1 Ki-interval and a 64 Ki-interval SOS that agree
// on those slots; the deeper binary search and its cache misses are all the
// larger state may add. When the LSOS was a clone edited in place the ratio
// was 42 (243 against 10,253 ns/event: every alloc and free shifted the
// tail of the sorted copy); as a view it reads 1.0.
func TestFirstPassIndependentOfStateSize(t *testing.T) {
	if raceDetectorEnabled || testing.Short() {
		t.Skip("timing test")
	}
	const (
		heapBase = 0x10000
		slotSize = 64
		pitch    = 128
		live     = 1 << 10 // slots the block touches
		events   = 2048
	)
	rng := rand.New(rand.NewSource(1))
	b := trace.NewBuilder(1)
	for i := 0; i < events; i++ {
		slot := heapBase + uint64(rng.Intn(live))*pitch
		switch rng.Intn(8) {
		case 0:
			b.Free(slot, slotSize).Alloc(slot, slotSize)
			i++
		case 1, 2:
			b.Write(slot, uint64(1+rng.Intn(slotSize)))
		default:
			b.Read(slot, uint64(1+rng.Intn(slotSize)))
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), events)
	if err != nil {
		t.Fatal(err)
	}
	block := g.Blocks[0][0]
	lg := addrcheck.New(0)
	nsPerEvent := func(slots int) float64 {
		sos := lg.BottomState().(*sets.IntervalSet)
		for s := 0; s < slots; s++ {
			sos.AddRange(heapBase+uint64(s)*pitch, heapBase+uint64(s)*pitch+slotSize)
		}
		ctx := core.PassContext{SOS: sos}
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 8; i++ {
				sum, reports := lg.FirstPass(block, ctx)
				if len(reports) != 0 {
					t.Fatalf("%d slots: the block is not clean: %v", slots, reports[0])
				}
				lg.Recycle(sum)
			}
			best = min(best, time.Since(start))
		}
		return float64(best.Nanoseconds()) / (8 * float64(len(block.Events)))
	}
	small, large := nsPerEvent(live), nsPerEvent(64*live)
	t.Logf("first pass: %.0f ns/event over %d intervals, %.0f ns/event over %d (ratio %.2f)",
		small, live, large, 64*live, large/small)
	if large > 3*small {
		t.Fatalf("first pass scales with the state: %.0f ns/event over %d intervals, %.0f over %d",
			small, live, large, 64*live)
	}
}
