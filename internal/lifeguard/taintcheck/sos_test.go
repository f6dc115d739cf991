package taintcheck

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// taintBlock is one genTaint-shaped block of n events for thread t: writes
// to its own locations among the first nloc, sources from anywhere among
// them.
func taintBlock(rng *rand.Rand, t, nthreads, nloc, n int) []trace.Event {
	loc := func(i int) uint64 { return 0x10000 + uint64(i)*8 }
	evs := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		own := loc(rng.Intn(nloc/nthreads)*nthreads + t)
		any := func() uint64 { return loc(rng.Intn(nloc)) }
		var e trace.Event
		switch p := rng.Intn(100); {
		case p < 2:
			e = trace.Event{Kind: trace.TaintSrc, Addr: own, Size: 1}
		case p < 12:
			e = trace.Event{Kind: trace.Untaint, Addr: own}
		case p < 50:
			e = trace.Event{Kind: trace.AssignUn, Addr: own, Src1: any()}
		case p < 70:
			e = trace.Event{Kind: trace.AssignBin, Addr: own, Src1: any(), Src2: any()}
		case p < 80:
			e = trace.Event{Kind: trace.Jump, Addr: own}
		default:
			e = trace.Event{Kind: trace.Nop}
		}
		evs = append(evs, e)
	}
	return evs
}

// TestTaintSecondPassIndependentOfStateSize is the gate on what the LSOS
// view bought: the second pass costs what its block costs, not what the SOS
// holds. One fixed block — 2,048 genTaint-shaped events over 512 locations,
// with a head and a wing — runs against a 256-location and a 16 Ki-location
// SOS that agree on those 512 locations; the deeper binary search and its
// cache misses are all the larger state may add. When the LSOS was a map
// copied per block the ratio was 9.9 (132 against 1,311 ns/event on a 2-vCPU
// x86-64 host); as a view it reads about 1.1 (97 against 102).
func TestTaintSecondPassIndependentOfStateSize(t *testing.T) {
	if sets.RaceEnabled || testing.Short() {
		t.Skip("timing test")
	}
	const nloc, events = 512, 2048
	rng := rand.New(rand.NewSource(1))
	head := &epoch.Block{Epoch: 0, Thread: 0, Events: taintBlock(rng, 0, 2, nloc, 256)}
	body := &epoch.Block{Epoch: 1, Thread: 0, Events: taintBlock(rng, 0, 2, nloc, events)}
	wing := &epoch.Block{Epoch: 1, Thread: 1, Events: taintBlock(rng, 1, 2, nloc, 256)}
	loc := func(i int) uint64 { return 0x10000 + uint64(i)*8 }
	var small []uint64
	for i := 1; i < nloc; i += 2 {
		small = append(small, loc(i))
	}
	large := slices.Clone(small)
	for i := nloc; len(large) < 16<<10; i++ {
		large = append(large, loc(i))
	}

	lg := New()
	nsPerEvent := func(locs []uint64) (float64, int) {
		st := &sos{locs: locs}
		hs, _ := lg.FirstPass(head, core.PassContext{SOS: st})
		lg.SecondPass(head, core.PassContext{SOS: st, Own: hs}, nil)
		ws, _ := lg.FirstPass(wing, core.PassContext{SOS: st})
		ctx := core.PassContext{SOS: st, Head: hs, Epoch1Back: []core.Summary{hs, nil}}
		best, reports := time.Duration(1<<62), 0
		for rep := 0; rep < 5; rep++ {
			var spent time.Duration
			for i := 0; i < 8; i++ {
				own, _ := lg.FirstPass(body, ctx)
				c := ctx
				c.Own = own
				start := time.Now()
				reports = len(lg.SecondPass(body, c, []core.Summary{ws}))
				spent += time.Since(start)
				ctx.Reuse = own // as the engine hands the summary back
			}
			best = min(best, spent)
		}
		return float64(best.Nanoseconds()) / (8 * float64(len(body.Events))), reports
	}
	fast, nSmall := nsPerEvent(small)
	slow, nLarge := nsPerEvent(large)
	t.Logf("second pass: %.0f ns/event over %d locations, %.0f ns/event over %d (ratio %.2f)",
		fast, len(small), slow, len(large), slow/fast)
	if nSmall != nLarge || nSmall == 0 {
		t.Fatalf("the two states disagree on the block: %d against %d reports", nSmall, nLarge)
	}
	if slow > 3*fast {
		t.Fatalf("second pass scales with the state: %.0f ns/event over %d locations, %.0f over %d",
			fast, len(small), slow, len(large))
	}
}

// fuzzSummary builds a summary holding only LASTCHECK conclusions.
func fuzzSummary(l, t int, concl map[uint64]Status) *Summary {
	s := &Summary{epoch: l, thread: trace.ThreadID(t)}
	keys := make([]uint64, 0, len(concl))
	for x := range concl {
		keys = append(keys, x)
	}
	slices.Sort(keys)
	for _, x := range keys {
		s.addLoc(x, 0)
		s.last[len(s.last)-1] = concl[x]
	}
	s.runs = append(s.runs, 0)
	return s
}

// FuzzTaintSOS checks the sorted-generation SOS merge, and the LSOS view
// over it, against the §6.2 formulas evaluated on maps. The first byte
// picks T (1–4) and whether epoch l−1 exists; each following pair of bytes
// is one conclusion: the first byte picks where it goes (the previous
// generation, thread t's block of epoch l, or thread t's block of epoch
// l−1), the second the location (24 of them, so programs revisit
// locations) and, in its top bit, ⊥ or ⊤. A later conclusion for the same
// block and location replaces an earlier one.
func FuzzTaintSOS(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 1, 0x83, 3, 3})
	f.Add([]byte{3, 0, 1, 0, 2, 1, 0x01, 2, 0x81, 5, 0x82, 6, 0x01, 7, 0x83})
	f.Fuzz(func(t *testing.T, prog []byte) {
		T, withPrev := 1, true
		if len(prog) > 0 {
			T, withPrev = 1+int(prog[0]%4), prog[0]&4 == 0
			prog = prog[1:]
		}
		old := map[uint64]bool{}
		cur, prev := make([]map[uint64]Status, T), make([]map[uint64]Status, T)
		for t := range cur {
			cur[t], prev[t] = map[uint64]Status{}, map[uint64]Status{}
		}
		for ; len(prog) >= 2; prog = prog[2:] {
			x, st := uint64(prog[1]&0x7f)%24, Top
			if prog[1]&0x80 != 0 {
				st = Bot
			}
			switch where := int(prog[0]) % (2*T + 1); {
			case where == 0:
				old[x] = true
			case where <= T:
				cur[where-1][x] = st
			default:
				prev[where-T-1][x] = st
			}
		}

		// The model: GEN ∪ (SOS − KILL) over maps, span and all.
		span := func(t int, x uint64) Status {
			if st, ok := cur[t][x]; ok {
				return st
			}
			if st, ok := prev[t][x]; ok && withPrev {
				return st
			}
			return Unknown
		}
		want := map[uint64]bool{}
		for x := range old {
			want[x] = true
		}
		kill := map[uint64]bool{}
		for t := range cur {
			for x, st := range cur[t] {
				if st != Top {
					continue
				}
				ok := true
				for tt := range cur {
					if tt != t && span(tt, x) == Bot {
						ok = false
					}
				}
				if ok {
					kill[x] = true
				}
			}
		}
		for x := range kill {
			delete(want, x)
		}
		for t := range cur {
			for x, st := range cur[t] {
				if st == Bot {
					want[x] = true
				}
			}
		}

		var oldLocs []uint64
		for x := range old {
			oldLocs = append(oldLocs, x)
		}
		slices.Sort(oldLocs)
		curSums, prevSums := make([]core.Summary, T), make([]core.Summary, T)
		for t := range cur {
			curSums[t], prevSums[t] = fuzzSummary(1, t, cur[t]), fuzzSummary(0, t, prev[t])
		}
		if !withPrev {
			prevSums = nil
		}
		lg := New()
		base := &sos{locs: oldLocs}
		got := lg.UpdateSOS(base, nil, prevSums, curSums).(*sos)
		var wantLocs []uint64
		for x := range want {
			wantLocs = append(wantLocs, x)
		}
		slices.Sort(wantLocs)
		if !slices.Equal(got.locs, wantLocs) || (got.locs == nil) != (len(wantLocs) == 0) {
			t.Fatalf("T=%d prev=%v: SOS' = %v, want %v (SOS %v, epoch l %v, epoch l−1 %v)",
				T, withPrev, got.locs, wantLocs, oldLocs, cur, prev)
		}

		// The LSOS view of block (2, 0) over the previous generation: the
		// head is thread 0's epoch-l block, epoch l−2 the l−1 row.
		v := lsos{sos: base, head: curSums[0].(*Summary)}
		for t := 1; t < T && withPrev; t++ {
			v.back2 = append(v.back2, prevSums[t].(*Summary))
		}
		for x := uint64(0); x < 24; x++ {
			st, inHead := cur[0][x]
			in := st == Bot || (old[x] && (!inHead || st != Top))
			for t := 1; t < T && withPrev && !in; t++ {
				in = old[x] && prev[t][x] == Bot
			}
			if v.Has(x) != in {
				t.Fatalf("T=%d prev=%v: LSOS has %#x = %v, want %v", T, withPrev, x, v.Has(x), in)
			}
		}
		// The same update written into a dead generation's storage.
		dead := &sos{locs: append(slices.Clone(wantLocs), oldLocs...)}
		if again := lg.UpdateSOS(base, dead, prevSums, curSums).(*sos); !slices.Equal(again.locs, got.locs) {
			t.Fatalf("T=%d prev=%v: SOS' into a dead generation = %v, want %v", T, withPrev, again.locs, got.locs)
		}
	})
}
