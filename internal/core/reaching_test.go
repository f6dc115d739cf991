package core_test

// Engine tests that drive butterfly reaching definitions (internal/
// lifeguard/reaching), the simplest analysis with an exactly known answer:
// the driver's serial and parallel schedules, its edge cases, and wing
// visibility in both directions.

import (
	"math/rand"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/reaching"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// randomDefTrace builds a small trace of writes/reads over a tiny address
// space, chunked into epochs of size h.
func randomDefTrace(rng *rand.Rand, nthreads, perThread, h int) *epoch.Grid {
	b := trace.NewBuilder(nthreads)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		for i := 0; i < perThread; i++ {
			addr := uint64(rng.Intn(3))
			if rng.Intn(4) == 0 {
				b.Read(addr, 1)
			} else {
				b.Write(addr, 1)
			}
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), h)
	if err != nil {
		panic(err)
	}
	return g
}

// TestDriverParallelMatchesSequential runs a checking lifeguard both ways
// and requires identical report multisets.
func TestDriverParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20; iter++ {
		g := randomDefTrace(rng, 4, 12, 3)
		mk := func() *reaching.ReachingDefs {
			rd := reaching.NewReachingDefs(g)
			rd.Check = func(b *epoch.Block, i int, in sets.Set) []core.Report {
				// Report reads of addresses with more than one reaching def
				// (an ambiguous read) — arbitrary but deterministic.
				e := b.Events[i]
				if e.Kind != trace.Read {
					return nil
				}
				n := 0
				for d := range in {
					if rd.U.LocOf(d) == e.Addr {
						n++
					}
				}
				if n > 1 {
					return []core.Report{{Ref: b.Ref(i), Ev: e, Code: "ambiguous-read"}}
				}
				return nil
			}
			return rd
		}
		seq := (&core.Driver{LG: mk()}).Run(g)
		par := (&core.Driver{LG: mk(), Parallel: true}).Run(g)
		if len(seq.Reports) != len(par.Reports) {
			t.Fatalf("iter %d: sequential %d reports, parallel %d", iter, len(seq.Reports), len(par.Reports))
		}
		count := map[trace.Ref]int{}
		for _, r := range seq.Reports {
			count[r.Ref]++
		}
		for _, r := range par.Reports {
			count[r.Ref]--
		}
		for ref, c := range count {
			if c != 0 {
				t.Fatalf("iter %d: report multiset differs at %v", iter, ref)
			}
		}
		if !seq.FinalSOS.(sets.Set).Equal(par.FinalSOS.(sets.Set)) {
			t.Fatalf("iter %d: final SOS differs", iter)
		}
	}
}

func TestDriverEmptyGrid(t *testing.T) {
	g, err := epoch.ChunkByCount(trace.NewBuilder(0).Build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := &reaching.ReachingDefs{U: nil}
	rd.U = reaching.NewReachingDefs(g).U
	res := (&core.Driver{LG: rd}).Run(g)
	if len(res.Reports) != 0 || res.Events != 0 {
		t.Fatalf("empty grid produced %+v", res)
	}
	if res.FinalSOS == nil {
		t.Fatal("FinalSOS should be bottom, not nil")
	}
}

func TestDriverSingleEpoch(t *testing.T) {
	tr := trace.NewBuilder(2).
		T(0).Write(1, 1).
		T(1).Write(2, 1).
		Build()
	g, err := epoch.ChunkByCount(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	rd := reaching.NewReachingDefs(g)
	rd.Record = true
	res := (&core.Driver{LG: rd}).Run(g)
	if res.Epochs != 1 {
		t.Fatalf("epochs = %d", res.Epochs)
	}
	// Both writes must reach the final SOS (they are last writers).
	final := res.FinalSOS.(sets.Set)
	if final.Len() != 2 {
		t.Fatalf("final SOS = %v", final)
	}
	// Each block must see the other's def through GEN-SIDE-IN.
	for tid := 0; tid < 2; tid++ {
		rec := rd.Recording(0, trace.ThreadID(tid))
		other := trace.Ref{Epoch: 0, Thread: trace.ThreadID(1 - tid), Index: 0}
		if !rec.IN[0].Has(other.Pack()) {
			t.Fatalf("block (0,%d) does not see wing def %v: IN=%v", tid, other, rec.IN[0])
		}
	}
}

// TestFigure2TaintScenario reproduces the structure of the paper's Figure 2
// with reaching definitions: two threads, three shared locations; checks
// that wing visibility is bidirectional within an epoch.
func TestFigure2TaintScenario(t *testing.T) {
	// Thread 1: (1) b := a    (2) c := buf
	// Thread 2: (i) a := c
	tr := trace.NewBuilder(2).
		T(0).Unop(0xb, 0xa).Unop(0xc, 0xbf).
		T(1).Unop(0xa, 0xc).
		Build()
	g, err := epoch.ChunkByCount(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	rd := reaching.NewReachingDefs(g)
	rd.Record = true
	(&core.Driver{LG: rd}).Run(g)
	rec1 := rd.Recording(0, 0)
	rec2 := rd.Recording(0, 1)
	defI := trace.Ref{Epoch: 0, Thread: 1, Index: 0}.Pack()
	def1 := trace.Ref{Epoch: 0, Thread: 0, Index: 0}.Pack()
	def2 := trace.Ref{Epoch: 0, Thread: 0, Index: 1}.Pack()
	// Thread 1's instructions see (i); thread 2's see (1) and (2).
	if !rec1.IN[0].Has(defI) || !rec1.IN[1].Has(defI) {
		t.Error("thread 1 does not see thread 2's def in its wings")
	}
	if !rec2.IN[0].Has(def1) || !rec2.IN[0].Has(def2) {
		t.Error("thread 2 does not see thread 1's defs in its wings")
	}
}
