package lifeguard

import (
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// ivSum is a test summary. Its scratch sits behind a pointer that
// cloneIvRow shares, so comparing a row with its clone checks GEN and KILL
// only: the kernels write the scratch of the summaries they are given.
type ivSum struct {
	gen, kill *sets.IntervalSet
	sc        *IntervalScratch
}

func newIvSum(gen, kill *sets.IntervalSet) *ivSum {
	return &ivSum{gen: gen, kill: kill, sc: new(IntervalScratch)}
}

func ivGenKill(s core.Summary) (gen, kill *sets.IntervalSet, scratch *IntervalScratch) {
	ss := s.(*ivSum)
	return ss.gen, ss.kill, ss.sc
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
		row[t] = newIvSum(randIvSet(rng, span), randIvSet(rng, span))
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
			out[t] = &ivSum{gen: ss.gen.Clone(), kill: ss.kill.Clone(), sc: ss.sc}
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
	headGen, headKill, _ := gk(ctx.Head)
	fromHead := headGen.Clone()
	for tt, s2 := range ctx.Epoch2Back {
		if trace.ThreadID(tt) == t || s2 == nil {
			continue
		}
		_, kill, _ := gk(s2)
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
		gt, kt, _ := gk(s)
		kill.UnionInPlace(kt)
		g := gt.Clone()
		for tt, s2 := range curEpoch {
			if tt == t {
				continue
			}
			curGen, curKill, _ := gk(s2)
			killedSpan, gennedSpan := curKill.Clone(), curGen.Clone()
			if prevEpoch != nil && prevEpoch[tt] != nil {
				prevGen, prevKill, _ := gk(prevEpoch[tt])
				killedSpan.UnionInPlace(prevKill)
				survived := prevGen.Clone()
				survived.SubtractInPlace(curKill)
				gennedSpan.UnionInPlace(survived)
			}
			killedSpan.SubtractInPlace(gennedSpan)
			g.SubtractInPlace(killedSpan)
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
// The LSOS view lives in one summary reused seed after seed, as the engine
// reuses a thread's summaries.
func TestIntervalKernelMatchesByteModel(t *testing.T) {
	const span = 64
	own := newIvSum(nil, nil)
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
			head = newIvSum(randIvSet(rng, span), randIvSet(rng, span))
		}
		me := trace.ThreadID(rng.Intn(T))
		sos0, back20, prev0, cur0 := sos.Clone(), cloneIvRow(back2), cloneIvRow(prevEpoch), cloneIvRow(curEpoch)
		head0 := cloneIvRow([]core.Summary{head})[0]

		ctx := core.PassContext{SOS: sos, Head: head, Epoch2Back: back2}
		lsos := IntervalLSOS(me, ctx, own, ivGenKill)
		next := IntervalUpdateSOS(sos, nil, prevEpoch, curEpoch, ivGenKill).(*sets.IntervalSet)

		if !reflect.DeepEqual(sos, sos0) || !reflect.DeepEqual(head, head0) || !reflect.DeepEqual(back2, back20) ||
			!reflect.DeepEqual(prevEpoch, prev0) || !reflect.DeepEqual(curEpoch, cur0) {
			t.Fatalf("seed %d: a kernel modified its inputs", seed)
		}

		wantL, wantN := sets.NewIntervalSet(), sets.NewIntervalSet()
		for x := uint64(0); x < span; x++ {
			in := sos.Contains(x)
			if head != nil {
				hg, hk, _ := ivGenKill(head)
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
// naive transcriptions on heap-backed sets of hundreds of intervals: the SOS
// update into fresh storage must be reflect.DeepEqual (canonical form
// included), the update into the generation the previous round returned
// must hold the same bytes, and the view — in a summary reused round after
// round — must cover the same bytes, before and after a block's worth of
// mutations.
func TestIntervalKernelsMatchNaive(t *testing.T) {
	const slots = 600
	own := newIvSum(nil, nil)
	var dead core.State
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := []int{4, 1, 2, 8}[seed%4]
		row := func(keep float64, holes bool) []core.Summary {
			out := make([]core.Summary, T)
			for t := range out {
				if holes && rng.Intn(4) == 0 {
					continue
				}
				out[t] = newIvSum(fragmentedIvSet(rng, slots, keep), fragmentedIvSet(rng, slots, keep))
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

		got := IntervalUpdateSOS(sos, nil, prevEpoch, curEpoch, ivGenKill)
		naive := naiveUpdateSOS(sos, prevEpoch, curEpoch, ivGenKill)
		if !reflect.DeepEqual(got, core.State(naive)) {
			t.Fatalf("seed %d (T = %d): IntervalUpdateSOS differs from the naive update", seed, T)
		}
		dead = IntervalUpdateSOS(sos, dead, prevEpoch, curEpoch, ivGenKill)
		if !dead.(*sets.IntervalSet).Equal(naive) {
			t.Fatalf("seed %d (T = %d): IntervalUpdateSOS into a dead generation differs from the naive update", seed, T)
		}

		lsos, want := IntervalLSOS(me, ctx, own, ivGenKill), naiveLSOS(me, ctx, ivGenKill)
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
		if !reflect.DeepEqual(sos, sos0) {
			t.Fatalf("seed %d: the SOS generation was written", seed)
		}
	}
}

// TestIntervalKernelEmptyInputs pins the canonical empty form: differential
// suites compare states with reflect.DeepEqual, so an empty result in fresh
// storage must be indistinguishable from a fresh set however the summaries'
// scratch was used before.
func TestIntervalKernelEmptyInputs(t *testing.T) {
	// Every summary's scratch first works through an update over large
	// sets, twice, so what is tested is scratch left kept and dirty.
	empty := func() *ivSum {
		rng := rand.New(rand.NewSource(1))
		s := newIvSum(fragmentedIvSet(rng, 64, 0.5), fragmentedIvSet(rng, 64, 0.5))
		other := newIvSum(fragmentedIvSet(rng, 64, 0.5), fragmentedIvSet(rng, 64, 0.5))
		for i := 0; i < 2; i++ {
			row := []core.Summary{s, other}
			IntervalUpdateSOS(fragmentedIvSet(rng, 64, 0.5), nil, row, row, ivGenKill)
		}
		s.gen, s.kill = sets.NewIntervalSet(), sets.NewIntervalSet()
		return s
	}
	want := sets.NewIntervalSet()
	for name, ctx := range map[string]core.PassContext{
		"no head":    {SOS: sets.NewIntervalSet()},
		"empty head": {SOS: sets.NewIntervalSet(), Head: empty(), Epoch2Back: []core.Summary{empty(), nil}},
	} {
		if got := IntervalLSOS(0, ctx, empty(), ivGenKill); !viewEquals(got, want) {
			t.Errorf("IntervalLSOS(%s) is not empty", name)
		}
	}
	for name, prev := range map[string][]core.Summary{
		"first epoch": nil,
		"empty rows":  {empty(), empty()},
	} {
		got := IntervalUpdateSOS(sets.NewIntervalSet(), nil, prev, []core.Summary{empty(), empty()}, ivGenKill)
		if !reflect.DeepEqual(got, core.State(want)) {
			t.Errorf("IntervalUpdateSOS(%s) = %#v, want canonical empty", name, got)
		}
	}
	// A full SOS killed entirely also ends canonical-empty.
	full := sets.NewIntervalSet(sets.Interval{Lo: 0, Hi: 1 << 20})
	killAll := newIvSum(sets.NewIntervalSet(), full.Clone())
	if got := IntervalUpdateSOS(full, nil, nil, []core.Summary{killAll}, ivGenKill); !reflect.DeepEqual(got, core.State(want)) {
		t.Errorf("IntervalUpdateSOS(kill everything) = %#v, want canonical empty", got)
	}
}
