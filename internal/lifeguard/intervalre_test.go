package lifeguard

import (
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

type ivSum struct{ gen, kill *sets.IntervalSet }

func ivGenKill(s core.Summary) (gen, kill *sets.IntervalSet) {
	ss := s.(*ivSum)
	return ss.gen, ss.kill
}

// randIvSet draws a set over the bytes [0, span).
func randIvSet(rng *rand.Rand, span int) *sets.IntervalSet {
	s := sets.NewIntervalSet()
	for n := rng.Intn(6); n > 0; n-- {
		lo := uint64(rng.Intn(span))
		s.AddRange(lo, lo+1+uint64(rng.Intn(span/4)))
	}
	s.RemoveRange(uint64(span), ^uint64(0))
	return s
}

func randIvRow(rng *rand.Rand, T, span int, holes bool) []core.Summary {
	row := make([]core.Summary, T)
	for t := range row {
		if holes && rng.Intn(4) == 0 {
			continue
		}
		row[t] = &ivSum{gen: randIvSet(rng, span), kill: randIvSet(rng, span)}
	}
	return row
}

func cloneIvRow(row []core.Summary) []core.Summary {
	if row == nil {
		return nil
	}
	out := make([]core.Summary, len(row))
	for t, s := range row {
		if s != nil {
			ss := s.(*ivSum)
			out[t] = &ivSum{gen: ss.gen.Clone(), kill: ss.kill.Clone()}
		}
	}
	return out
}

// naiveLSOS is the LSOS by materialisation — clone the SOS, subtract the
// head's KILL, union what survives of its GEN: the production body before
// the LSOS became a view, kept as the oracle the view is checked against.
func naiveLSOS(t trace.ThreadID, ctx core.PassContext, gk GenKill) *sets.IntervalSet {
	out := ctx.SOS.(*sets.IntervalSet).Clone()
	if ctx.Head == nil {
		return out
	}
	headGen, headKill := gk(ctx.Head)
	fromHead := headGen.Clone()
	for tt, s2 := range ctx.Epoch2Back {
		if trace.ThreadID(tt) == t || s2 == nil {
			continue
		}
		_, kill := gk(s2)
		fromHead.SubtractInPlace(kill)
	}
	out.SubtractInPlace(headKill)
	out.UnionInPlace(fromHead)
	return out
}

// naiveUpdateSOS is the SOS update as the equations read: lost(t′) recomputed
// for every (t, t′) pair, then copy, subtract, union.
func naiveUpdateSOS(prev *sets.IntervalSet, prevEpoch, curEpoch []core.Summary, gk GenKill) *sets.IntervalSet {
	kill, gen := sets.NewIntervalSet(), sets.NewIntervalSet()
	for t, s := range curEpoch {
		gt, kt := gk(s)
		kill.UnionInPlace(kt)
		g := gt.Clone()
		for tt, s2 := range curEpoch {
			if tt == t {
				continue
			}
			curGen, curKill := gk(s2)
			killedSpan, gennedSpan := curKill.Clone(), curGen.Clone()
			if prevEpoch != nil && prevEpoch[tt] != nil {
				prevGen, prevKill := gk(prevEpoch[tt])
				killedSpan.UnionInPlace(prevKill)
				gennedSpan.UnionInPlace(prevGen.Subtract(curKill))
			}
			g.SubtractInPlace(killedSpan.Subtract(gennedSpan))
		}
		gen.UnionInPlace(g)
	}
	out := prev.Clone()
	out.SubtractInPlace(kill)
	out.UnionInPlace(gen)
	return out
}

// viewEquals reports whether the view covers exactly the bytes of want,
// through the view's own queries: every interval of want is contained but
// not with the byte on either side of it, and no gap between two of them is
// overlapped.
func viewEquals(o *sets.Overlay, want *sets.IntervalSet) bool {
	gapLo := uint64(0)
	for _, iv := range want.Intervals() {
		if !o.ContainsRange(iv.Lo, iv.Hi) || o.ContainsRange(iv.Lo, iv.Hi+1) ||
			iv.Lo > 0 && o.ContainsRange(iv.Lo-1, iv.Hi) || o.OverlapsRange(gapLo, iv.Lo) {
			return false
		}
		gapLo = iv.Hi
	}
	return !o.OverlapsRange(gapLo, ^uint64(0))
}

// TestIntervalKernelMatchesByteModel checks both kernels against the §5.2
// equations evaluated one byte at a time, and that no input is modified.
func TestIntervalKernelMatchesByteModel(t *testing.T) {
	const span = 64
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := []int{3, 1, 2, 4, 8}[seed%5]
		sos := randIvSet(rng, span)
		back2 := randIvRow(rng, T, span, true)
		prevEpoch := randIvRow(rng, T, span, seed%7 == 0)
		curEpoch := randIvRow(rng, T, span, false)
		if seed%4 == 0 {
			prevEpoch = nil
		}
		var head core.Summary
		if seed%3 != 0 {
			head = &ivSum{gen: randIvSet(rng, span), kill: randIvSet(rng, span)}
		}
		me := trace.ThreadID(rng.Intn(T))
		sos0, back20, prev0, cur0 := sos.Clone(), cloneIvRow(back2), cloneIvRow(prevEpoch), cloneIvRow(curEpoch)
		head0 := cloneIvRow([]core.Summary{head})[0]

		ctx := core.PassContext{SOS: sos, Head: head, Epoch2Back: back2}
		lsos := IntervalLSOS(me, ctx, ivGenKill)
		next := IntervalUpdateSOS(sos, prevEpoch, curEpoch, ivGenKill).(*sets.IntervalSet)

		if !reflect.DeepEqual(sos, sos0) || !reflect.DeepEqual(head, head0) || !reflect.DeepEqual(back2, back20) ||
			!reflect.DeepEqual(prevEpoch, prev0) || !reflect.DeepEqual(curEpoch, cur0) {
			t.Fatalf("seed %d: a kernel modified its inputs", seed)
		}

		wantL, wantN := sets.NewIntervalSet(), sets.NewIntervalSet()
		for x := uint64(0); x < span; x++ {
			in := sos.Contains(x)
			if head != nil {
				hg, hk := ivGenKill(head)
				fromHead := hg.Contains(x)
				for tt, s2 := range back2 {
					if trace.ThreadID(tt) != me && s2 != nil && s2.(*ivSum).kill.Contains(x) {
						fromHead = false
					}
				}
				in = in && !hk.Contains(x) || fromHead
			}
			if in {
				wantL.AddRange(x, x+1)
			}

			killed, genned := false, false
			for t, s := range curEpoch {
				cur := s.(*ivSum)
				killed = killed || cur.kill.Contains(x)
				survives := cur.gen.Contains(x)
				for tt, s2 := range curEpoch {
					if tt == t {
						continue
					}
					o := s2.(*ivSum)
					killedSpan, gennedSpan := o.kill.Contains(x), o.gen.Contains(x)
					if prevEpoch != nil && prevEpoch[tt] != nil {
						p := prevEpoch[tt].(*ivSum)
						killedSpan = killedSpan || p.kill.Contains(x)
						gennedSpan = gennedSpan || p.gen.Contains(x) && !o.kill.Contains(x)
					}
					if killedSpan && !gennedSpan {
						survives = false
					}
				}
				genned = genned || survives
			}
			if sos.Contains(x) && !killed || genned {
				wantN.AddRange(x, x+1)
			}
		}
		if !viewEquals(lsos, wantL) {
			t.Fatalf("seed %d: IntervalLSOS differs from the byte model %v", seed, wantL)
		}
		if naive := naiveLSOS(me, ctx, ivGenKill); !reflect.DeepEqual(naive, wantL) {
			t.Fatalf("seed %d: naiveLSOS = %v, byte model %v", seed, naive, wantL)
		}
		if !reflect.DeepEqual(next, wantN) {
			t.Fatalf("seed %d (T = %d): IntervalUpdateSOS = %v, byte model %v", seed, T, next, wantN)
		}
		sets.PutOverlay(lsos)
	}
}

// fragmentedIvSet draws n slots of 48 bytes on a 64-byte pitch and keeps
// each with probability keep: sets of the size and shape of a fragmented
// heap's SOS, where the byte model cannot go.
func fragmentedIvSet(rng *rand.Rand, n int, keep float64) *sets.IntervalSet {
	s := sets.NewIntervalSet()
	for i := 0; i < n; i++ {
		if rng.Float64() < keep {
			s.AddRange(uint64(i)*64, uint64(i)*64+48)
		}
	}
	return s
}

// TestIntervalKernelsMatchNaive checks the production kernels against the
// naive transcriptions on heap-backed sets of hundreds of intervals, over
// pools dirtied by earlier rounds: the SOS update must be reflect.DeepEqual
// (canonical form included), the view must cover the same bytes, before and
// after a block's worth of mutations.
func TestIntervalKernelsMatchNaive(t *testing.T) {
	const slots = 600
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := []int{4, 1, 2, 8}[seed%4]
		row := func(keep float64, holes bool) []core.Summary {
			out := make([]core.Summary, T)
			for t := range out {
				if holes && rng.Intn(4) == 0 {
					continue
				}
				out[t] = &ivSum{gen: fragmentedIvSet(rng, slots, keep), kill: fragmentedIvSet(rng, slots, keep)}
			}
			return out
		}
		sos := fragmentedIvSet(rng, slots, 0.7)
		sos0 := sos.Clone()
		back2, prevEpoch, curEpoch := row(0.05, true), row(0.05, seed%5 == 0), row(0.05, false)
		if seed%6 == 0 {
			prevEpoch = nil
		}
		ctx := core.PassContext{SOS: sos, Head: row(0.1, false)[0], Epoch2Back: back2}
		me := trace.ThreadID(rng.Intn(T))

		got := IntervalUpdateSOS(sos, prevEpoch, curEpoch, ivGenKill)
		if want := naiveUpdateSOS(sos, prevEpoch, curEpoch, ivGenKill); !reflect.DeepEqual(got, core.State(want)) {
			t.Fatalf("seed %d (T = %d): IntervalUpdateSOS differs from the naive update", seed, T)
		}

		lsos, want := IntervalLSOS(me, ctx, ivGenKill), naiveLSOS(me, ctx, ivGenKill)
		if !viewEquals(lsos, want) {
			t.Fatalf("seed %d: IntervalLSOS differs from the naive LSOS", seed)
		}
		for i := 0; i < 200; i++ {
			lo := uint64(rng.Intn(slots*64 + 64))
			hi := lo + uint64(rng.Intn(160))
			if rng.Intn(2) == 0 {
				lsos.AddRange(lo, hi)
				want.AddRange(lo, hi)
			} else {
				lsos.RemoveRange(lo, hi)
				want.RemoveRange(lo, hi)
			}
		}
		if !viewEquals(lsos, want) {
			t.Fatalf("seed %d: the view drifted from the naive LSOS under mutation", seed)
		}
		sets.PutOverlay(lsos)
		if !reflect.DeepEqual(sos, sos0) {
			t.Fatalf("seed %d: the SOS generation was written", seed)
		}
		sets.PutSet(got.(*sets.IntervalSet)) // dirty the pools for the next round
	}
}

// TestIntervalKernelEmptyInputs pins the canonical empty form: differential
// suites compare states with reflect.DeepEqual, so an empty result must be
// indistinguishable from a fresh set however the pooled scratch was used.
func TestIntervalKernelEmptyInputs(t *testing.T) {
	empty := func() *ivSum { return &ivSum{gen: sets.NewIntervalSet(), kill: sets.NewIntervalSet()} }
	// Dirty the pool first so reuse, not construction, is what is tested.
	for i := 0; i < 8; i++ {
		s := sets.GetSet()
		s.AddRange(uint64(i), uint64(i)+100)
		sets.PutSet(s)
	}
	want := sets.NewIntervalSet()
	for name, ctx := range map[string]core.PassContext{
		"no head":    {SOS: sets.NewIntervalSet()},
		"empty head": {SOS: sets.NewIntervalSet(), Head: empty(), Epoch2Back: []core.Summary{empty(), nil}},
	} {
		if got := IntervalLSOS(0, ctx, ivGenKill); !viewEquals(got, want) {
			t.Errorf("IntervalLSOS(%s) is not empty", name)
		}
	}
	for name, prev := range map[string][]core.Summary{
		"first epoch": nil,
		"empty rows":  {empty(), empty()},
	} {
		got := IntervalUpdateSOS(sets.NewIntervalSet(), prev, []core.Summary{empty(), empty()}, ivGenKill)
		if !reflect.DeepEqual(got, core.State(want)) {
			t.Errorf("IntervalUpdateSOS(%s) = %#v, want canonical empty", name, got)
		}
	}
	// A full SOS killed entirely also ends canonical-empty.
	full := sets.NewIntervalSet(sets.Interval{Lo: 0, Hi: 1 << 20})
	killAll := &ivSum{gen: sets.NewIntervalSet(), kill: full.Clone()}
	if got := IntervalUpdateSOS(full, nil, []core.Summary{killAll}, ivGenKill); !reflect.DeepEqual(got, core.State(want)) {
		t.Errorf("IntervalUpdateSOS(kill everything) = %#v, want canonical empty", got)
	}
	if got := MergeIntervalPieces([]core.State{sets.NewIntervalSet(), sets.NewIntervalSet()}); !reflect.DeepEqual(got, core.State(want)) {
		t.Errorf("MergeIntervalPieces(empty pieces) = %#v, want canonical empty", got)
	}
}
