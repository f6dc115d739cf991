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
	const (
		heapBase  = 0x100
		heapSlots = 8
		slotSize  = 8
		locs      = 16 // taint-location space
		locks     = 3
	)
	slot := func() uint64 { return heapBase + uint64(rng.Intn(heapSlots))*slotSize }
	loc := func() uint64 { return uint64(0x40 + rng.Intn(locs)) }
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		n := rng.Intn(60)
		if rng.Intn(8) == 0 {
			n = 0 // occasionally an empty thread
		}
		for i := 0; i < n; i++ {
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
	}
	return b.Build()
}

// referenceRun is the oracle of the differential suites: a serial
// transcription of the two-pass algorithm (§4.3, §5) written only against
// the exported Lifeguard interface. It keeps whole-grid arrays indexed by
// epoch, walks the wings naively per body (never filling WingAggs, so the
// engine's prefix/suffix wing folds are differentially verified too), and
// has no sharding, recycling or metrics. Every epoch's summaries and SOS are
// kept in the Result.
func referenceRun(lg core.Lifeguard, g *epoch.Grid) *core.Result {
	L, T := g.NumEpochs(), g.NumThreads
	res := &core.Result{Epochs: L, Events: g.TotalEvents()}
	if L == 0 || T == 0 {
		res.FinalSOS = lg.BottomState()
		return res
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
			sos[l] = lg.UpdateSOS(sos[l-1], row(l-3), row(l-2))
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
		sos[l] = lg.UpdateSOS(sos[l-1], row(l-3), row(l-2))
	}
	res.FinalSOS = sos[L+1]
	res.Summaries, res.SOSHistory = sums, sos
	return res
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

func TestDifferentialDrivers(t *testing.T) {
	type variant struct {
		name string
		run  func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result
	}
	variants := []variant{
		{"run-serial", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return (&core.Driver{LG: lg}).Run(g)
		}},
		{"run-parallel", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return (&core.Driver{LG: lg, Parallel: true}).Run(g)
		}},
		{"stream-serial", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			res, err := (&core.Driver{LG: lg}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"stream-pipelined", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			res, err := (&core.Driver{LG: lg, Parallel: true}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"stream-wire", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return runStreamOverWire(t, &core.Driver{LG: lg, Parallel: true}, g)
		}},
	}

	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nthreads := 1 + rng.Intn(8)
				h := []int{1, 2, 5, 16}[rng.Intn(4)]
				maxSkew := 0
				if h > 1 && rng.Intn(2) == 0 {
					maxSkew = rng.Intn(h)
				}
				tr := randomTrace(rng, nthreads)
				g, err := epoch.ChunkWithSkew(tr, h, maxSkew, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fmt.Sprintf("seed=%d threads=%d h=%d skew=%d epochs=%d events=%d",
					seed, nthreads, h, maxSkew, g.NumEpochs(), g.TotalEvents())

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
		par := (&core.Driver{LG: mk(), Parallel: true}).Run(g)
		str, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Reports, want.Reports) {
			t.Errorf("%s: parallel Run report order differs from the reference", lgName)
		}
		if !reflect.DeepEqual(str.Reports, want.Reports) {
			t.Errorf("%s: stream report order differs from the reference", lgName)
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
