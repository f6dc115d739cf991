package core_test

// Differential-testing oracle harness (the para-dflow validation pattern):
// randomized traces are driven through every way of reaching the engine —
// Run serial and parallel, RunStream serial, pipelined, and pipelined
// through the wire codec — and all must produce the identical report
// sequence and identical final SOS, for all four lifeguards. The oracle is
// referenceRun, a direct transcription of the paper's algorithm that shares
// no code with the engine.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/lockset"
	"butterfly/internal/lifeguard/memcheck"
	"butterfly/internal/lifeguard/taintcheck"
	"butterfly/internal/trace"
)

// lifeguards returns fresh instances of every lifeguard under test. The
// constructors run per comparison so no state leaks between drivers.
var lifeguards = map[string]func() core.Lifeguard{
	"addrcheck":  func() core.Lifeguard { return addrcheck.New(0) },
	"memcheck":   func() core.Lifeguard { return memcheck.New(0) },
	"taintcheck": func() core.Lifeguard { return taintcheck.New() },
	"lockset":    func() core.Lifeguard { return lockset.New() },
}

// randomTrace builds a workload exercising every lifeguard at once: a small
// heap with allocation churn, reads and writes (some through unallocated
// memory), taint sources, propagation and critical uses, and locks (held
// correctly and incorrectly). Thread lengths are skewed — some threads may
// be empty — so the grid gets ragged tails and empty blocks.
func randomTrace(rng *rand.Rand, nthreads int) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		n := rng.Intn(60)
		if rng.Intn(8) == 0 {
			n = 0 // occasionally an empty thread
		}
		for i := 0; i < n; i++ {
			randomEvent(b, rng)
		}
	}
	return b.Build()
}

// randomEvent appends one event of randomTrace's mix to b's current thread.
func randomEvent(b *trace.Builder, rng *rand.Rand) {
	const (
		heapBase  = 0x100
		heapSlots = 8
		slotSize  = 8
		locs      = 16 // taint-location space
		locks     = 3
	)
	slot := func() uint64 { return heapBase + uint64(rng.Intn(heapSlots))*slotSize }
	loc := func() uint64 { return uint64(0x40 + rng.Intn(locs)) }
	switch rng.Intn(16) {
	case 0:
		b.Alloc(slot(), slotSize)
	case 1:
		b.Free(slot(), slotSize)
	case 2, 3, 4:
		b.Read(slot(), uint64(1+rng.Intn(slotSize)))
	case 5, 6:
		b.Write(slot(), uint64(1+rng.Intn(slotSize)))
	case 7:
		b.Taint(loc(), uint64(1+rng.Intn(2)))
	case 8:
		b.Untaint(loc())
	case 9, 10:
		b.Unop(loc(), loc())
	case 11:
		b.Binop(loc(), loc(), loc())
	case 12:
		b.Jump(loc())
	case 13:
		b.Lock(uint64(1 + rng.Intn(locks)))
	case 14:
		b.Unlock(uint64(1 + rng.Intn(locks)))
	default:
		b.Nop(1)
	}
}

// referenceRun is the oracle of the differential suites: a serial
// transcription of the two-pass algorithm (§4.3, §5) written only against
// the exported Lifeguard interface. It keeps whole-grid arrays indexed by
// epoch, walks the wings naively per body (never filling WingAggs, so the
// engine's row folds are differentially verified too), and
// has no sharding or metrics. It keeps every value, so it never hands one
// back (no Reuse summary, no dead generation): comparing it with the engine
// also checks that reusing storage changes no result.
func referenceRun(lg core.Lifeguard, g *epoch.Grid) *core.Result {
	res, _ := referenceHistory(lg, g)
	return res
}

// referenceHistory is referenceRun that also returns every epoch's summaries
// and SOS, which it keeps anyway.
func referenceHistory(lg core.Lifeguard, g *epoch.Grid) (*core.Result, history) {
	L, T := g.NumEpochs(), g.NumThreads
	res := &core.Result{Epochs: L, Events: g.TotalEvents()}
	if L == 0 || T == 0 {
		res.FinalSOS = lg.BottomState()
		return res, history{}
	}
	sums := make([][]core.Summary, L)
	sos := make([]core.State, L+2)
	sos[0], sos[1] = lg.BottomState(), lg.BottomState()
	row := func(l int) []core.Summary {
		if l < 0 || l >= L {
			return nil
		}
		return sums[l]
	}
	ctxFor := func(l, t int) core.PassContext {
		c := core.PassContext{SOS: sos[l], Epoch1Back: row(l - 1), Epoch2Back: row(l - 2)}
		if c.Epoch1Back != nil {
			c.Head = c.Epoch1Back[t]
		}
		return c
	}
	secondPass := func(l int) {
		for t := 0; t < T; t++ {
			c := ctxFor(l, t)
			c.Own = sums[l][t]
			var wings []core.Summary
			for le := l - 1; le <= l+1; le++ {
				for tt, s := range row(le) {
					if tt != t {
						wings = append(wings, s)
					}
				}
			}
			res.Reports = append(res.Reports, lg.SecondPass(g.Block(l, trace.ThreadID(t)), c, wings)...)
		}
	}
	for l := 0; l < L; l++ {
		if l >= 2 {
			// SOSₗ = GEN_{l−2} ∪ (SOS_{l−1} − KILL_{l−2}).
			sos[l] = lg.UpdateSOS(sos[l-1], nil, row(l-3), row(l-2))
		}
		sums[l] = make([]core.Summary, T)
		for t := 0; t < T; t++ {
			var reps []core.Report
			sums[l][t], reps = lg.FirstPass(g.Block(l, trace.ThreadID(t)), ctxFor(l, t))
			res.Reports = append(res.Reports, reps...)
		}
		if l >= 1 {
			secondPass(l - 1)
		}
	}
	secondPass(L - 1)
	for l := max(L, 2); l < L+2; l++ {
		sos[l] = lg.UpdateSOS(sos[l-1], nil, row(l-3), row(l-2))
	}
	res.FinalSOS = sos[L+1]
	return res, history{sums: sums, sos: sos}
}

// runStreamOverWire encodes the grid in the streaming trace format and runs
// the driver over the decoded stream, exercising codec, adapter and
// pipeline end to end.
func runStreamOverWire(t *testing.T, d *core.Driver, g *epoch.Grid) *core.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := epoch.WriteStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunStream(epoch.NewStreamRows(sr))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// wideTrace is randomTrace over a wider heap: 64 slots × 16 B, with
// multi-slot allocations and frees and accesses at unaligned offsets up to
// four slots long, so event ranges straddle slot (and 64-byte) boundaries
// and the interval sets split and coalesce where randomTrace's 8-byte slots
// never make them.
func wideTrace(rng *rand.Rand, nthreads int) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	const (
		heapBase  = 0x1000
		heapSlots = 64
		slotSize  = 16
		locs      = 96
		locks     = 3
	)
	slot := func() uint64 { return heapBase + uint64(rng.Intn(heapSlots))*slotSize }
	loc := func() uint64 { return uint64(0x40 + rng.Intn(locs)) }
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		n := rng.Intn(80)
		if rng.Intn(8) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(16) {
			case 0:
				b.Alloc(slot(), slotSize*uint64(1+rng.Intn(8)))
			case 1:
				b.Free(slot(), slotSize*uint64(1+rng.Intn(8)))
			case 2, 3, 4:
				b.Read(slot()+uint64(rng.Intn(slotSize)), uint64(1+rng.Intn(4*slotSize)))
			case 5, 6:
				b.Write(slot()+uint64(rng.Intn(slotSize)), uint64(1+rng.Intn(4*slotSize)))
			case 7:
				b.Taint(loc(), uint64(1+rng.Intn(2)))
			case 8:
				b.Untaint(loc())
			case 9, 10:
				b.Unop(loc(), loc())
			case 11:
				b.Binop(loc(), loc(), loc())
			case 12:
				b.Jump(loc())
			case 13:
				b.Lock(uint64(1 + rng.Intn(locks)))
			case 14:
				b.Unlock(uint64(1 + rng.Intn(locks)))
			default:
				b.Nop(1)
			}
		}
	}
	return b.Build()
}

// differentialGrid builds the input of one TestDifferentialDrivers case:
// seeds 0–11 chunk randomTrace, seeds 12–19 chunk wideTrace.
func differentialGrid(t *testing.T, seed int64) (*epoch.Grid, string) {
	t.Helper()
	var (
		tr                   *trace.Trace
		nthreads, h, maxSkew int
		chunkSeed            = seed
	)
	if seed < 12 {
		rng := rand.New(rand.NewSource(seed))
		nthreads = 1 + rng.Intn(8)
		h = []int{1, 2, 5, 16}[rng.Intn(4)]
		if h > 1 && rng.Intn(2) == 0 {
			maxSkew = rng.Intn(h)
		}
		tr = randomTrace(rng, nthreads)
	} else {
		chunkSeed = seed - 12
		rng := rand.New(rand.NewSource(chunkSeed))
		nthreads = 1 + rng.Intn(6)
		h = []int{1, 3, 9}[rng.Intn(3)]
		tr = wideTrace(rng, nthreads)
		maxSkew = rng.Intn(h)
	}
	g, err := epoch.ChunkWithSkew(tr, h, maxSkew, chunkSeed)
	if err != nil {
		t.Fatal(err)
	}
	return g, fmt.Sprintf("seed=%d threads=%d h=%d skew=%d epochs=%d events=%d",
		seed, nthreads, h, maxSkew, g.NumEpochs(), g.TotalEvents())
}

// schedules are the three ways a Parallel driver may run its ticks. Nearly
// every differential grid is far below tickGrain, so without the pinned
// schedules the adaptive rule would keep them all inline and the workers
// untested.
var schedules = []struct {
	name string
	s    core.TickSchedule
}{
	{"adaptive", core.ScheduleAdaptive},
	{"inline", core.ScheduleInline},
	{"fanout", core.ScheduleFanout},
}

// parallelDriver returns a Parallel driver over lg pinned to schedule s.
func parallelDriver(lg core.Lifeguard, s core.TickSchedule) *core.Driver {
	d := &core.Driver{LG: lg, Parallel: true}
	core.SetTickSchedule(d, s)
	return d
}

func TestDifferentialDrivers(t *testing.T) {
	type variant struct {
		name string
		run  func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result
	}
	variants := []variant{
		{"run-serial", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return (&core.Driver{LG: lg}).Run(g)
		}},
		{"stream-serial", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			res, err := (&core.Driver{LG: lg}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
	}
	for _, sc := range schedules {
		s := sc.s
		variants = append(variants,
			variant{"run-parallel/" + sc.name, func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
				return parallelDriver(lg, s).Run(g)
			}},
			variant{"stream-pipelined/" + sc.name, func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
				res, err := parallelDriver(lg, s).RunStream(epoch.NewGridRows(g))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}},
			variant{"stream-wire/" + sc.name, func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
				return runStreamOverWire(t, parallelDriver(lg, s), g)
			}})
	}

	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				g, cfg := differentialGrid(t, seed)
				want := referenceRun(mk(), g)

				for _, v := range variants {
					got := v.run(t, mk(), g)
					if got.Epochs != want.Epochs || got.Events != want.Events {
						t.Fatalf("%s %s: epochs/events = %d/%d, want %d/%d",
							v.name, cfg, got.Epochs, got.Events, want.Epochs, want.Events)
					}
					if !reflect.DeepEqual(got.Reports, want.Reports) {
						t.Fatalf("%s %s: reports diverge from the reference\n got: %v\nwant: %v",
							v.name, cfg, got.Reports, want.Reports)
					}
					if !reflect.DeepEqual(got.FinalSOS, want.FinalSOS) {
						t.Fatalf("%s %s: FinalSOS diverges from the reference\n got: %#v\nwant: %#v",
							v.name, cfg, got.FinalSOS, want.FinalSOS)
					}
				}
			}
		})
	}
}

// TestDifferentialReportOrder pins down the stronger property the engine
// actually provides: report order — (epoch, pass, thread, instruction) — is
// the reference's, not merely the canonical multiset.
func TestDifferentialReportOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := randomTrace(rng, 4)
	g, err := epoch.ChunkByCount(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for lgName, mk := range lifeguards {
		want := referenceRun(mk(), g)
		for _, sc := range schedules {
			par := parallelDriver(mk(), sc.s).Run(g)
			str, err := parallelDriver(mk(), sc.s).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par.Reports, want.Reports) {
				t.Errorf("%s/%s: parallel Run report order differs from the reference", lgName, sc.name)
			}
			if !reflect.DeepEqual(str.Reports, want.Reports) {
				t.Errorf("%s/%s: stream report order differs from the reference", lgName, sc.name)
			}
		}
	}
}

// straddleGrid builds a T-thread grid from per-epoch row sizes: every
// thread's block in epoch l holds about sizes[l] events of randomTrace's
// mix, and the row exactly T·sizes[l] (the per-thread offsets cancel, so
// blocks are ragged but row totals are known). Heartbeats cut the epochs.
func straddleGrid(t *testing.T, T int, sizes []int, seed int64) *epoch.Grid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	offset := []int{-1, 1, -2, 2}
	b := trace.NewBuilder(T)
	for th := 0; th < T; th++ {
		b.T(trace.ThreadID(th))
		for l, n := range sizes {
			if l > 0 {
				b.Heartbeat()
			}
			if n >= 2 && T%len(offset) == 0 {
				n += offset[th%len(offset)]
			}
			for i := 0; i < n; i++ {
				randomEvent(b, rng)
			}
		}
	}
	g, err := epoch.ChunkByHeartbeat(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// straddleCases are row-size patterns (events per thread, T = 4) whose
// ticks cross tickGrain both ways within one run. A tick reads row l plus
// row l−1; the trailing tick reads the last row. fanout lists, for every
// tick of the run including the trailing one, whether the adaptive rule
// sends it to the workers.
var straddleCases = []struct {
	name   string
	sizes  []int
	fanout []bool
}{
	// Reads per thread: 300 316 8 8 204 240 42 302 | 300.
	{"fanout-ends", []int{300, 16, 4, 4, 200, 40, 2, 300},
		[]bool{true, true, false, false, false, false, false, true, true}},
	// Reads per thread: 4 304 304 104 300 400 204 | 4.
	{"inline-ends", []int{4, 300, 4, 100, 200, 200, 4},
		[]bool{false, true, true, false, true, true, false, false}},
}

// TestDifferentialGrainStraddle runs grids whose rows straddle tickGrain,
// so one adaptive run switches between inline and fanned-out ticks —
// including at tick 0 and at the trailing tick — and must still match the
// reference (and the serial driver) exactly.
func TestDifferentialGrainStraddle(t *testing.T) {
	const T = 4
	for _, tc := range straddleCases {
		g := straddleGrid(t, T, tc.sizes, 7)
		for lgName, mk := range lifeguards {
			want := referenceRun(mk(), g)
			serial := (&core.Driver{LG: mk()}).Run(g)
			for _, sc := range schedules {
				for name, got := range map[string]*core.Result{
					"run":    parallelDriver(mk(), sc.s).Run(g),
					"stream": runStreamOverWire(t, parallelDriver(mk(), sc.s), g),
				} {
					for _, ref := range []*core.Result{want, serial} {
						if got.Epochs != ref.Epochs || got.Events != ref.Events ||
							!reflect.DeepEqual(got.Reports, ref.Reports) ||
							!reflect.DeepEqual(got.FinalSOS, ref.FinalSOS) {
							t.Fatalf("%s %s %s/%s: result diverges (%d reports, want %d)",
								tc.name, lgName, name, sc.name, len(got.Reports), len(ref.Reports))
						}
					}
				}
			}
		}
	}
}

// TestStreamEmptyInputs covers the degenerate shapes: zero threads, zero
// epochs, and a single empty epoch.
func TestStreamEmptyInputs(t *testing.T) {
	for lgName, mk := range lifeguards {
		empty := trace.NewBuilder(0).Build()
		g, err := epoch.ChunkByHeartbeat(empty)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g))
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRun(mk(), g)
		for _, got := range []*core.Result{res, (&core.Driver{LG: mk()}).Run(g)} {
			if !reflect.DeepEqual(got.FinalSOS, want.FinalSOS) || len(got.Reports) != 0 {
				t.Errorf("%s: zero-thread grid: got %d reports, FinalSOS mismatch", lgName, len(got.Reports))
			}
		}

		oneEmpty := trace.NewBuilder(2).Build() // two threads, no events
		g2, err := epoch.ChunkByCount(oneEmpty, 4)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g2))
		if err != nil {
			t.Fatal(err)
		}
		want2 := referenceRun(mk(), g2)
		for _, got := range []*core.Result{res2, (&core.Driver{LG: mk()}).Run(g2)} {
			if got.Epochs != want2.Epochs || !reflect.DeepEqual(got.FinalSOS, want2.FinalSOS) {
				t.Errorf("%s: empty-epoch grid: epochs %d vs %d", lgName, got.Epochs, want2.Epochs)
			}
		}
	}
}
