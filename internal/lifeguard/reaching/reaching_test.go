package reaching

import (
	"math/rand"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/interleave"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// recorder wraps an analysis and keeps every value the engine asks it for:
// sums[l][t] is block (l, t)'s first-pass summary and sos[l] is SOSₗ (the
// engine asks for SOS₀ and SOS₁ as bottom states, then one UpdateSOS per
// later generation). It keeps the values, so it passes no dead generation
// on, and the analyses here reuse no summary, so the recorded values stay
// intact. Recording is not locked: run it serially.
type recorder struct {
	core.Lifeguard
	sums [][]core.Summary
	sos  []core.State
}

func (r *recorder) BottomState() core.State {
	s := r.Lifeguard.BottomState()
	r.sos = append(r.sos, s)
	return s
}

func (r *recorder) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s, reps := r.Lifeguard.FirstPass(b, ctx)
	for len(r.sums) <= b.Epoch {
		r.sums = append(r.sums, nil)
	}
	for len(r.sums[b.Epoch]) <= int(b.Thread) {
		r.sums[b.Epoch] = append(r.sums[b.Epoch], nil)
	}
	r.sums[b.Epoch][b.Thread] = s
	return s, reps
}

func (r *recorder) UpdateSOS(prev, _ core.State, prevEpoch, curEpoch []core.Summary) core.State {
	s := r.Lifeguard.UpdateSOS(prev, nil, prevEpoch, curEpoch)
	r.sos = append(r.sos, s)
	return s
}

// subGrid returns the grid restricted to epochs [0, upTo].
func subGrid(g *epoch.Grid, upTo int) *epoch.Grid {
	return &epoch.Grid{NumThreads: g.NumThreads, Blocks: g.Blocks[:upTo+1]}
}

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

// runRD runs butterfly reaching definitions with recording on and its
// history recorded.
func runRD(g *epoch.Grid) (*ReachingDefs, *recorder) {
	rd := NewReachingDefs(g)
	rd.Record = true
	rec := &recorder{Lifeguard: rd}
	(&core.Driver{LG: rec}).Run(g)
	return rd, rec
}

// TestLemma51ReachingDefs checks both halves of Lemma 5.1 against exhaustive
// enumeration of valid orderings:
//
//	d ∈ GENₗ  ⟹ some valid ordering O_l ends with d live.
//	d ∈ KILLₗ ⟹ no valid ordering O_l ends with d live.
func TestLemma51ReachingDefs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 40; iter++ {
		g := randomDefTrace(rng, 2, 4, 2) // 2 threads × 2 epochs × 2 events
		_, h := runRD(g)
		rd := NewReachingDefs(g)
		for l := 0; l < g.NumEpochs(); l++ {
			var prev []core.Summary
			if l > 0 {
				prev = h.sums[l-1]
			}
			genL, killL := rd.EpochGenKill(prev, h.sums[l])

			// Collect GEN(O) for every valid ordering of epochs 0..l.
			reached := map[uint64]bool{}       // d live in some ordering
			alwaysDead := sets.NewSet()        // complement built below
			for d := range genL.Union(killL) { // candidates to track
				alwaysDead.Add(d)
			}
			interleave.Enumerate(subGrid(g, l), func(o []interleave.Item) bool {
				live := liveDefs(o)
				for d := range live {
					reached[d] = true
					alwaysDead.Remove(d)
				}
				return true
			})
			for d := range genL {
				if !reached[d] {
					t.Fatalf("iter %d epoch %d: %v ∈ GEN_l but live in no valid ordering",
						iter, l, trace.UnpackRef(d))
				}
			}
			for d := range killL {
				if reached[d] {
					t.Fatalf("iter %d epoch %d: %v ∈ KILL_l but live in some valid ordering",
						iter, l, trace.UnpackRef(d))
				}
			}
		}
	}
}

// liveDefs computes GEN(O): the last writer of each address in the ordering.
func liveDefs(o []interleave.Item) sets.Set {
	last := map[uint64]uint64{}
	for _, it := range o {
		switch it.Ev.Kind {
		case trace.Write, trace.AssignUn, trace.AssignBin, trace.Untaint:
			last[it.Ev.Addr] = it.Ref.Pack()
		}
	}
	out := sets.NewSet()
	for _, id := range last {
		out.Add(id)
	}
	return out
}

// TestLemma52SOSInvariant checks the SOS invariant (Lemma 5.2) exactly:
// d ∈ SOSₗ ⟺ ∃ valid ordering O_{l−2} with d live at its end.
func TestLemma52SOSInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 30; iter++ {
		g := randomDefTrace(rng, 2, 6, 2) // 3 epochs per thread
		_, h := runRD(g)
		for l := 2; l < g.NumEpochs()+2; l++ {
			sos := h.sos[l].(sets.Set)
			upTo := l - 2
			if upTo >= g.NumEpochs() {
				upTo = g.NumEpochs() - 1
			}
			reachable := sets.NewSet()
			interleave.Enumerate(subGrid(g, upTo), func(o []interleave.Item) bool {
				reachable.AddAll(liveDefs(o))
				return true
			})
			if !sos.Equal(reachable) {
				t.Fatalf("iter %d: SOS_%d = %v, want %v", iter, l, sos, reachable)
			}
		}
	}
}

// TestReachingDefsINSound checks that IN_{l,t,i} over-approximates the
// definitions reaching the instruction along every possible path: for any
// prefix of a valid ordering ending just before (l,t,i), the live defs are
// contained in IN_{l,t,i}. (The butterfly may add more — conservative — but
// may never miss one.)
func TestReachingDefsINSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 25; iter++ {
		g := randomDefTrace(rng, 2, 4, 2)
		rd, _ := runRD(g)
		L := g.NumEpochs()
		for l := 0; l < L; l++ {
			for tid := 0; tid < g.NumThreads; tid++ {
				rec := rd.Recording(l, trace.ThreadID(tid))
				if rec == nil {
					t.Fatalf("no recording for block (%d,%d)", l, tid)
				}
				blk := g.Block(l, trace.ThreadID(tid))
				for i := range blk.Events {
					target := blk.Ref(i)
					in := rec.IN[i]
					upTo := l + 1
					if upTo >= L {
						upTo = L - 1
					}
					interleave.Enumerate(subGrid(g, upTo), func(o []interleave.Item) bool {
						for pos, it := range o {
							if it.Ref == target {
								live := liveDefs(o[:pos])
								if !live.Subset(in) {
									t.Errorf("iter %d: defs %v reach %v but IN = %v",
										iter, live.Difference(in), target, in)
									return false
								}
								break
							}
						}
						return true
					})
					if t.Failed() {
						return
					}
				}
			}
		}
	}
}

// randomExprTrace builds traces with binop/unop expressions over a tiny
// variable space, so expression gen/kill interactions are dense.
func randomExprTrace(rng *rand.Rand, nthreads, perThread, h int) *epoch.Grid {
	b := trace.NewBuilder(nthreads)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		for i := 0; i < perThread; i++ {
			x := uint64(rng.Intn(3))
			y := uint64(rng.Intn(3))
			z := uint64(rng.Intn(3))
			switch rng.Intn(3) {
			case 0:
				b.Binop(x, y, z)
			case 1:
				b.Unop(x, y)
			default:
				b.Write(x, 1)
			}
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), h)
	if err != nil {
		panic(err)
	}
	return g
}

func runRE(g *epoch.Grid) (*ReachingExprs, *recorder) {
	re := NewReachingExprs(g)
	re.Record = true
	rec := &recorder{Lifeguard: re}
	(&core.Driver{LG: rec}).Run(g)
	return re, rec
}

// TestReachingExprsEpochSound checks the §5.2 duals of Lemma 5.1:
//
//	e ∈ GENₗ  ⟹ e is available at the end of every valid ordering O_l.
//	e ∈ KILLₗ ⟹ e is unavailable at the end of some valid ordering O_l.
func TestReachingExprsEpochSound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 40; iter++ {
		g := randomExprTrace(rng, 2, 4, 2)
		re, h := runRE(g)
		for l := 0; l < g.NumEpochs(); l++ {
			var prev []core.Summary
			if l > 0 {
				prev = h.sums[l-1]
			}
			genL, killL := re.EpochGenKill(prev, h.sums[l])

			availAll := (sets.Set)(nil) // ∩ over orderings
			availMissing := sets.NewSet()
			interleave.Enumerate(subGrid(g, l), func(o []interleave.Item) bool {
				avail := re.U.SeqAvailExprs(interleave.Events(o))
				if availAll == nil {
					availAll = avail.Clone()
				} else {
					for e := range availAll {
						if !avail.Has(e) {
							availAll.Remove(e)
						}
					}
				}
				for e := range killL {
					if !avail.Has(e) {
						availMissing.Add(e)
					}
				}
				return true
			})
			for e := range genL {
				if !availAll.Has(e) {
					t.Fatalf("iter %d epoch %d: expr %d ∈ GEN_l but unavailable in some ordering", iter, l, e)
				}
			}
			for e := range killL {
				if !availMissing.Has(e) {
					t.Fatalf("iter %d epoch %d: expr %d ∈ KILL_l but available in every ordering", iter, l, e)
				}
			}
		}
	}
}

// TestReachingExprsSOSSound: e ∈ SOSₗ ⟹ e available at the end of every
// valid ordering of epochs 0..l−2 (conservative under-approximation).
func TestReachingExprsSOSSound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 30; iter++ {
		g := randomExprTrace(rng, 2, 6, 2)
		re, h := runRE(g)
		for l := 2; l < g.NumEpochs()+2; l++ {
			sos := h.sos[l].(sets.Set)
			if sos.Empty() {
				continue
			}
			upTo := l - 2
			if upTo >= g.NumEpochs() {
				upTo = g.NumEpochs() - 1
			}
			interleave.Enumerate(subGrid(g, upTo), func(o []interleave.Item) bool {
				avail := re.U.SeqAvailExprs(interleave.Events(o))
				for e := range sos {
					if !avail.Has(e) {
						t.Errorf("iter %d: expr %d ∈ SOS_%d but dead after some ordering", iter, e, l)
						return false
					}
				}
				return true
			})
			if t.Failed() {
				return
			}
		}
	}
}

// TestReachingExprsINSound: e ∈ IN_{l,t,i} ⟹ e available along every path
// (prefix of a valid ordering) to (l,t,i).
func TestReachingExprsINSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 25; iter++ {
		g := randomExprTrace(rng, 2, 4, 2)
		re, _ := runRE(g)
		L := g.NumEpochs()
		for l := 0; l < L; l++ {
			for tid := 0; tid < g.NumThreads; tid++ {
				rec := re.Recording(l, trace.ThreadID(tid))
				blk := g.Block(l, trace.ThreadID(tid))
				for i := range blk.Events {
					target := blk.Ref(i)
					in := rec.IN[i]
					if in.Empty() {
						continue
					}
					upTo := l + 1
					if upTo >= L {
						upTo = L - 1
					}
					interleave.Enumerate(subGrid(g, upTo), func(o []interleave.Item) bool {
						for pos, it := range o {
							if it.Ref == target {
								avail := re.U.SeqAvailExprs(interleave.Events(o[:pos]))
								if !in.Subset(avail) {
									t.Errorf("iter %d: IN_%v claims %v but path provides only %v",
										iter, target, in, avail)
									return false
								}
								break
							}
						}
						return true
					})
					if t.Failed() {
						return
					}
				}
			}
		}
	}
}

func TestReachingDefsWindowEquivalence(t *testing.T) {
	// The sliding window must not change results: Run serial and parallel
	// and RunStream all yield identical final SOS.
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 10; iter++ {
		g := randomDefTrace(rng, 3, 20, 3)
		run := func(d *core.Driver) *core.Result { return d.Run(g) }
		stream := func(d *core.Driver) *core.Result {
			res, err := d.RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		variants := []struct {
			d   core.Driver
			run func(*core.Driver) *core.Result
		}{
			{core.Driver{LG: NewReachingDefs(g)}, run},
			{core.Driver{LG: NewReachingDefs(g)}, stream},
			{core.Driver{LG: NewReachingDefs(g), Parallel: true}, run},
		}
		var base sets.Set
		for i := range variants {
			res := variants[i].run(&variants[i].d)
			got := res.FinalSOS.(sets.Set)
			if i == 0 {
				base = got
				continue
			}
			if !got.Equal(base) {
				t.Fatalf("iter %d: variant %d final SOS differs", iter, i)
			}
		}
	}
}
