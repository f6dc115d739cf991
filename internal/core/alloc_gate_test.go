package core_test

// The steady-state allocation gate (ISSUE: zero-allocation steady state).
// After the sliding window fills and its storage has grown to size, feeding
// one more epoch through the serial incremental driver must cost at most a
// small fixed number of heap allocations, independent of how long the run
// has been going. This is the property that keeps GC pauses off the
// monitoring path; `make bench-alloc` enforces the same budget on the
// full client/server stack via -benchmem.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/lockset"
	"butterfly/internal/lifeguard/taintcheck"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// steadyAllocBudget is the per-epoch heap-allocation budget once warm.
// Measured ~0-2 on the serial driver (rare interval-set growth past the
// storage a reused summary or generation already has); the headroom keeps
// the gate from flaking on GC bookkeeping,
// while still catching any reintroduced per-epoch allocation (a single
// make per epoch shows up as +1 and a per-block one as +T).
const steadyAllocBudget = 8

// reportingBlockAllocBudget is what each reporting block may add to the
// per-epoch budget: the block's exactly sized report slice and the one
// string its reports' details share (lifeguard.Details), measured at 2.
// The tick's own report slice is inside steadyAllocBudget. Any per-report
// allocation — a formatted detail, a counter name — shows up as +32 here.
const reportingBlockAllocBudget = 3

// smallRowsAllocBudget is the tighter budget of the h = 32 grid, serial
// and adaptive Parallel alike: measured 0.2–0.3 allocs/epoch on both. A
// tick fanned out to the workers allocates a barrier channel per crossing
// (2.4 allocs/epoch measured with fan-out pinned), so a small tick that
// stops running inline fails here.
const smallRowsAllocBudget = 1

// steadyTrace builds a report-free AddrCheck workload: every thread
// allocates its slots up front, then reads and writes only allocated
// memory, with occasional free/realloc churn so interval kernels do real
// work. No reports means the gate measures the driver, not report
// formatting. Slots are 64 bytes, one every pitch bytes: at pitch 64 a
// thread's slots coalesce and the SOS is a handful of intervals that never
// leave inline storage; at a wider pitch every slot is an interval of its
// own and the SOS is nthreads × slots intervals on heap backings.
func steadyTrace(nthreads, perThread, slots int, pitch uint64) *trace.Trace {
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
	return b.Build()
}

// reportTrace builds an AddrCheck workload that reports on half of its
// accesses, like the benchmark's report-flood: each thread allocates its own
// 64-byte slots one every 128 bytes, then reads and writes them, and every
// other access lands in the gap behind a slot. Threads keep to their own
// slots, so the reports are first-pass ones: every block reports, and its
// reports cost what reportingBlockAllocBudget allows.
func reportTrace(nthreads, perThread int) *trace.Trace {
	const heapBase, slots, slotSize, pitch = 0x10000, 32, 64, 128
	b := trace.NewBuilder(nthreads)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		rng := rand.New(rand.NewSource(int64(t + 1)))
		base := heapBase + uint64(t*slots)*pitch
		for s := 0; s < slots; s++ {
			b.Alloc(base+uint64(s)*pitch, slotSize)
		}
		for i := slots; i < perThread; i++ {
			addr := base + uint64(rng.Intn(slots))*pitch + uint64(rng.Intn(slotSize-8))
			if i%2 == 0 {
				addr += slotSize // the gap
			}
			if rng.Intn(4) == 0 {
				b.Write(addr, 8)
			} else {
				b.Read(addr, 8)
			}
		}
	}
	return b.Build()
}

// lockTrace builds a report-free lockset workload shaped like the
// benchmark's genLockset: 4096 bytes, byte v guarded by lock v mod 64 and
// only ever accessed inside a critical section of that lock (1–4 accesses
// per section), at h = 256. As there, a prologue has every byte written under
// its lock by one thread and read by another, so the candidates are all made
// during the warm-up and the measured epochs only confirm them.
func lockTrace(nthreads, perThread int) *trace.Trace {
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
	return b.Build()
}

// taintTrace builds a report-free TaintCheck workload shaped like the
// benchmark's genTaint at h = 256: 4096 locations, location i written only
// by thread i mod nthreads, with taint sources, untaints, and unary and
// binary assignments whose sources are drawn from anywhere, so the Check
// resolver chases chains through the head and the wings. Jumps, the only
// uses that report, go to a separate region only ever written by untaints
// and stores, so no use is tainted and the gate measures the analysis, not
// report formatting.
func taintTrace(nthreads, perThread int) *trace.Trace {
	const locs, clean = 4096, 256
	loc := func(i int) uint64 { return 0x10000 + uint64(i)*8 }
	safe := func(i int) uint64 { return 0x100000 + uint64(i)*8 }
	b := trace.NewBuilder(nthreads)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		rng := rand.New(rand.NewSource(int64(t + 1)))
		for i := 0; i < perThread; i++ {
			own := loc(rng.Intn(locs/nthreads)*nthreads + t)
			any := func() uint64 { return loc(rng.Intn(locs)) }
			switch p := rng.Intn(100); {
			case p < 2:
				b.Taint(own, 1)
			case p < 12:
				b.Untaint(own)
			case p < 50:
				b.Unop(own, any())
			case p < 70:
				b.Binop(own, any(), any())
			case p < 75:
				b.Write(safe(rng.Intn(clean/nthreads)*nthreads+t), 8)
			case p < 85:
				b.Jump(safe(rng.Intn(clean)))
			default:
				b.Nop(1)
			}
		}
	}
	return b.Build()
}

// chunk cuts tr into epochs of h events per thread.
func chunk(tb testing.TB, tr *trace.Trace, h int) *epoch.Grid {
	tb.Helper()
	g, err := epoch.ChunkByCount(tr, h)
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
	// every kernel scratch is a heap backing, beside the few-interval
	// sets of the LSOS views.
	compact := chunk(t, steadyTrace(T, 8192, 32, 64), 64)
	fragmented := chunk(t, steadyTrace(T, 8192, 160, 128), 64)
	// The same heap in rows of 32 events a thread, far below tickGrain: an
	// adaptive Parallel driver runs these ticks inline and must cost what
	// the serial driver costs.
	small := chunk(t, steadyTrace(T, 8192, 32, 64), 32)
	// The lock grid's prologue is 2,112 events a thread (9 epochs at
	// h = 256), all of it inside the warm-up below.
	locked := chunk(t, lockTrace(T, 128*256), 256)
	tainted := chunk(t, taintTrace(T, 96*256), 256)
	reporting := chunk(t, reportTrace(T, 8192), 64)
	addr := func() core.Lifeguard { return addrcheck.New(0) }
	locks := func() core.Lifeguard { return lockset.New() }
	taint := func() core.Lifeguard { return taintcheck.New() }
	// Most grids here are below tickGrain too; their parallel cases pin
	// fan-out so the gate keeps covering the workers and barriers.
	fanout := core.Driver{Parallel: true}
	core.SetTickSchedule(&fanout, core.ScheduleFanout)
	for _, tc := range []struct {
		name   string
		g      *epoch.Grid
		lg     func() core.Lifeguard
		d      core.Driver
		budget float64 // 0: steadyAllocBudget
	}{
		{"serial", compact, addr, core.Driver{}, 0},
		{"served", compact, addr, fanout, 0},
		{"fragmented/serial", fragmented, addr, core.Driver{}, 0},
		{"fragmented/served", fragmented, addr, fanout, 0},
		{"addrcheck/small-rows/serial", small, addr, core.Driver{}, smallRowsAllocBudget},
		{"addrcheck/small-rows", small, addr, core.Driver{Parallel: true}, smallRowsAllocBudget},
		{"lockset/serial", locked, locks, core.Driver{}, 0},
		{"lockset/parallel", locked, locks, fanout, 0},
		{"taintcheck/serial", tainted, taint, core.Driver{}, 0},
		{"taintcheck/parallel", tainted, taint, fanout, 0},
		{"addrcheck/reporting/serial", reporting, addr, core.Driver{}, 0},
		{"addrcheck/reporting/parallel", reporting, addr, fanout, 0},
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
			// Reports are counted, not kept: keeping them would allocate.
			var nreports, reportingBlocks int
			var first core.Report
			var pool epoch.RowPool
			rb := epoch.NewRowBuilder(T)
			inc.SetRowRecycler(pool.Put)
			feed := func(l int) {
				blocks := pool.Get(T)
				for t2, b := range blocks {
					b.Events = append(b.Events[:0], g.Blocks[l][t2].Events...)
				}
				rb.Stamp(blocks)
				reps, err := inc.FeedEpoch(blocks)
				if err != nil {
					t.Fatalf("epoch %d: %v", l, err)
				}
				if nreports == 0 && len(reps) > 0 {
					first = reps[0]
				}
				nreports += len(reps)
				for i := range reps {
					if i == 0 || reps[i].Ref.Thread != reps[i-1].Ref.Thread {
						reportingBlocks++
					}
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
			nreports, reportingBlocks = 0, 0
			for l := warm; l < g.NumEpochs(); l++ {
				feed(l)
			}
			runtime.ReadMemStats(&after)
			perEpoch := float64(after.Mallocs-before.Mallocs) / float64(measured)
			budget := float64(steadyAllocBudget)
			if tc.budget != 0 {
				budget = tc.budget
			}
			if g == reporting {
				// Every block of this grid reports; the others may not.
				if reportingBlocks != measured*T {
					t.Fatalf("%d of %d measured blocks report, want all", reportingBlocks, measured*T)
				}
				budget += float64(reportingBlockAllocBudget * T)
			} else if nreports != 0 {
				t.Fatalf("the grid is not report-free: %v", first)
			}
			t.Logf("steady state: %.2f allocs/epoch over %d epochs, %.1f reports/epoch (budget %v)",
				perEpoch, measured, float64(nreports)/float64(measured), budget)
			if perEpoch > budget {
				t.Fatalf("steady-state allocations regressed: %.2f allocs/epoch exceeds budget %v",
					perEpoch, budget)
			}
		})
	}
}

// TestFirstPassIndependentOfStateSize is the gate on what the LSOS view
// bought: the first pass costs what its block costs, not what the SOS
// holds. One fixed block — free/realloc churn and accesses over 1 Ki heap
// slots — runs against a 1 Ki-interval and a 64 Ki-interval SOS that agree
// on those slots, each built as the engine builds a generation, with its
// directory: the larger state may add only cache misses. When the LSOS was
// a clone edited in place the ratio was 42 (243 against 10,253 ns/event:
// every alloc and free shifted the tail of the sorted copy); as a view it
// reads 1.0.
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
		set := sets.NewIntervalSet()
		for s := 0; s < slots; s++ {
			set.AddRange(heapBase+uint64(s)*pitch, heapBase+uint64(s)*pitch+slotSize)
		}
		ctx := core.PassContext{SOS: lifeguard.NewIntervalSOS(set)}
		best := time.Duration(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := time.Now()
			for i := 0; i < 8; i++ {
				sum, reports := lg.FirstPass(block, ctx)
				if len(reports) != 0 {
					t.Fatalf("%d slots: the block is not clean: %v", slots, reports[0])
				}
				ctx.Reuse = sum // as the engine hands a summary back
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
