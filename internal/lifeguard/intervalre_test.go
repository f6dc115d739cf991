package lifeguard

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

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
	out := ctx.SOS.(*IntervalSOS).Set().Clone()
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

// sameGen reports whether generations a and b read equal contents, by
// value, whichever storage each reads: the same bytes and equal directories
// (DeepEqual ignores capacity), and with canonical set also the same
// in-memory form of the set, as for a generation built in fresh storage,
// which must be indistinguishable from NewIntervalSOS's.
func sameGen(a, b core.State, canonical bool) bool {
	x, y := a.(*IntervalSOS).storage(), b.(*IntervalSOS).storage()
	if canonical {
		return reflect.DeepEqual(*x, *y)
	}
	return x.set.Equal(&y.set) && reflect.DeepEqual(x.dir, y.dir)
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
		sosSet := randIvSet(rng, span)
		sos := NewIntervalSOS(sosSet)
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
		sos0, back20, prev0, cur0 := NewIntervalSOS(sosSet), cloneIvRow(back2), cloneIvRow(prevEpoch), cloneIvRow(curEpoch)
		head0 := cloneIvRow([]core.Summary{head})[0]

		ctx := core.PassContext{SOS: sos, Head: head, Epoch2Back: back2}
		lsos := IntervalLSOS(me, ctx, own, ivGenKill)
		next := IntervalUpdateSOS(sos, nil, prevEpoch, curEpoch, ivGenKill)

		if !sameGen(sos, sos0, true) || !reflect.DeepEqual(head, head0) || !reflect.DeepEqual(back2, back20) ||
			!reflect.DeepEqual(prevEpoch, prev0) || !reflect.DeepEqual(curEpoch, cur0) {
			t.Fatalf("seed %d: a kernel modified its inputs", seed)
		}

		wantL, wantN := sets.NewIntervalSet(), sets.NewIntervalSet()
		for x := uint64(0); x < span; x++ {
			in := sosSet.Contains(x)
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
			if sosSet.Contains(x) && !killed || genned {
				wantN.AddRange(x, x+1)
			}
		}
		if !viewEquals(lsos, wantL) {
			t.Fatalf("seed %d: IntervalLSOS differs from the byte model %v", seed, wantL)
		}
		if naive := naiveLSOS(me, ctx, ivGenKill); !reflect.DeepEqual(naive, wantL) {
			t.Fatalf("seed %d: naiveLSOS = %v, byte model %v", seed, naive, wantL)
		}
		if !sameGen(next, NewIntervalSOS(wantN), true) {
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
// naive transcriptions on heap-backed sets of hundreds of intervals, whose
// generations carry a directory: the SOS update into fresh storage must
// equal NewIntervalSOS's by value (canonical form and directory included),
// the update into the generation the previous round returned must hold the
// same bytes and an equal directory, an update that changes nothing must
// read the same, and the view — in a summary reused round after round — must cover the
// same bytes, before and after a block's worth of mutations.
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
		sosSet := fragmentedIvSet(rng, slots, 0.7)
		sos, sos0 := NewIntervalSOS(sosSet), NewIntervalSOS(sosSet)
		if reflect.DeepEqual(sos.own.dir, sets.Directory{}) {
			t.Fatalf("seed %d: a generation of %d intervals has no directory", seed, sosSet.NumIntervals())
		}
		back2, prevEpoch, curEpoch := row(0.05, true), row(0.05, seed%5 == 0), row(0.05, false)
		if seed%6 == 0 {
			prevEpoch = nil
		}
		ctx := core.PassContext{SOS: sos, Head: row(0.1, false)[0], Epoch2Back: back2}
		me := trace.ThreadID(rng.Intn(T))

		got := IntervalUpdateSOS(sos, nil, prevEpoch, curEpoch, ivGenKill)
		naive := naiveUpdateSOS(sosSet, prevEpoch, curEpoch, ivGenKill)
		if !sameGen(got, NewIntervalSOS(naive), true) {
			t.Fatalf("seed %d (T = %d): IntervalUpdateSOS differs from the naive update", seed, T)
		}
		dead = IntervalUpdateSOS(sos, dead, prevEpoch, curEpoch, ivGenKill)
		if !sameGen(dead, NewIntervalSOS(naive), false) {
			t.Fatalf("seed %d (T = %d): IntervalUpdateSOS into a dead generation differs from the naive update", seed, T)
		}
		// An epoch whose blocks change nothing: the dead generation reads
		// the same set and directory.
		quiet := []core.Summary{newIvSum(sets.NewIntervalSet(), sets.NewIntervalSet())}
		if dead = IntervalUpdateSOS(sos, dead, nil, quiet, ivGenKill); !sameGen(dead, sos0, false) {
			t.Fatalf("seed %d: an update that changes nothing differs from its input", seed)
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
		if !sameGen(sos, sos0, true) {
			t.Fatalf("seed %d: the SOS generation was written", seed)
		}
	}
}

// TestUnchangedEpochsShareGenerations runs the SOS update down a linear
// history, as the engine does (each update's dead argument is the
// generation before prev), through runs of epochs that change nothing
// between epochs that do. Every generation must read as the naive update's
// result, and keep reading so while it is live: as prev of the next update
// too. An unchanged epoch's generation reads prev's storage rather than a
// copy; the final update (dead nil) copies it into fresh storage.
func TestUnchangedEpochsShareGenerations(t *testing.T) {
	const slots = 600
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := []int{2, 4, 1, 3}[seed%4]
		row := func(keep float64) []core.Summary {
			out := make([]core.Summary, T)
			for t := range out {
				out[t] = newIvSum(fragmentedIvSet(rng, slots, keep), fragmentedIvSet(rng, slots, keep))
			}
			return out
		}
		quiet := func() []core.Summary {
			out := make([]core.Summary, T)
			for t := range out {
				out[t] = newIvSum(sets.NewIntervalSet(), sets.NewIntervalSet())
			}
			return out
		}
		start := fragmentedIvSet(rng, slots, 0.7)
		// want[k] is generation k's bytes; gens holds the two live ones.
		want := []*sets.IntervalSet{sets.NewIntervalSet(), start}
		older, newer := core.State(new(IntervalSOS)), core.State(NewIntervalSOS(start))
		var prevEpoch []core.Summary
		for step := 0; step < 24; step++ {
			// Runs of one to four unchanged epochs between changing ones.
			cur := quiet()
			if step%5 == 0 || rng.Intn(3) == 0 {
				cur = row(0.03)
			}
			next := naiveUpdateSOS(want[len(want)-1], prevEpoch, cur, ivGenKill)
			got := IntervalUpdateSOS(newer, older, prevEpoch, cur, ivGenKill)
			if got != older {
				t.Fatalf("seed %d step %d: the update did not reuse the dead generation", seed, step)
			}
			unchanged := next.Equal(want[len(want)-1])
			if shares := got.(*IntervalSOS).Set() == newer.(*IntervalSOS).Set(); shares != unchanged {
				t.Fatalf("seed %d step %d: an epoch that changes nothing = %v, shares prev's storage = %v", seed, step, unchanged, shares)
			}
			want = append(want, next)
			if !sameGen(got, NewIntervalSOS(next), false) {
				t.Fatalf("seed %d step %d: generation differs from the naive update", seed, step)
			}
			if !sameGen(newer, NewIntervalSOS(want[len(want)-2]), false) {
				t.Fatalf("seed %d step %d: the update changed what prev reads", seed, step)
			}
			older, newer, prevEpoch = newer, got, cur
		}
		// The final update copies into fresh storage, even when unchanged.
		final := IntervalUpdateSOS(newer, nil, prevEpoch, quiet(), ivGenKill)
		if final.(*IntervalSOS).Set() == newer.(*IntervalSOS).Set() || !sameGen(final, NewIntervalSOS(want[len(want)-1]), true) {
			t.Fatalf("seed %d: the final generation is not a fresh copy of the last", seed)
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
			IntervalUpdateSOS(NewIntervalSOS(fragmentedIvSet(rng, 64, 0.5)), nil, row, row, ivGenKill)
		}
		s.gen, s.kill = sets.NewIntervalSet(), sets.NewIntervalSet()
		return s
	}
	want := sets.NewIntervalSet()
	for name, ctx := range map[string]core.PassContext{
		"no head":    {SOS: new(IntervalSOS)},
		"empty head": {SOS: new(IntervalSOS), Head: empty(), Epoch2Back: []core.Summary{empty(), nil}},
	} {
		if got := IntervalLSOS(0, ctx, empty(), ivGenKill); !viewEquals(got, want) {
			t.Errorf("IntervalLSOS(%s) is not empty", name)
		}
	}
	for name, prev := range map[string][]core.Summary{
		"first epoch": nil,
		"empty rows":  {empty(), empty()},
	} {
		got := IntervalUpdateSOS(new(IntervalSOS), nil, prev, []core.Summary{empty(), empty()}, ivGenKill)
		if !sameGen(got, new(IntervalSOS), true) {
			t.Errorf("IntervalUpdateSOS(%s) = %v, want canonical empty", name, got.(*IntervalSOS).Set())
		}
	}
	// A full SOS killed entirely also ends canonical-empty.
	full := sets.NewIntervalSet(sets.Interval{Lo: 0, Hi: 1 << 20})
	killAll := newIvSum(sets.NewIntervalSet(), full.Clone())
	if got := IntervalUpdateSOS(NewIntervalSOS(full), nil, nil, []core.Summary{killAll}, ivGenKill); !sameGen(got, new(IntervalSOS), true) {
		t.Errorf("IntervalUpdateSOS(kill everything) = %v, want canonical empty", got.(*IntervalSOS).Set())
	}
}

// TestSOSProbeIndependentOfStateSize is the gate on the directory: a
// first-pass check's probe into the SOS — the LSOS view, pristine, over a
// generation built as the engine builds one — costs within 1.5× at 64 Ki
// intervals of what it costs at 1 Ki. Only cache misses may tell the two
// apart; a binary search over the whole set pays six more dependent loads
// and reads 2–3× here.
func TestSOSProbeIndependentOfStateSize(t *testing.T) {
	if sets.RaceEnabled || testing.Short() {
		t.Skip("timing test")
	}
	const (
		nprobe = 1 << 12
		reps   = 64
	)
	nsPerProbe := func(slots int) float64 {
		rng := rand.New(rand.NewSource(1))
		set := fragmentedIvSet(rng, slots, 0.5)
		probes := make([]uint64, nprobe)
		for i := range probes {
			probes[i] = uint64(rng.Intn(slots * 64))
		}
		own := newIvSum(nil, nil)
		lsos := IntervalLSOS(0, core.PassContext{SOS: NewIntervalSOS(set)}, own, ivGenKill)
		best, hits := time.Duration(1<<62), 0
		for round := 0; round < 5; round++ {
			start := time.Now()
			for r := 0; r < reps; r++ {
				for _, x := range probes {
					if lsos.ContainsRange(x, x+8) {
						hits++
					}
				}
			}
			best = min(best, time.Since(start))
		}
		if hits == 0 {
			t.Fatalf("%d slots: no probe hit the set", slots)
		}
		return float64(best.Nanoseconds()) / (reps * nprobe)
	}
	small, large := nsPerProbe(2<<10), nsPerProbe(128<<10) // about 1 Ki and 64 Ki intervals
	t.Logf("SOS probe: %.2f ns over 1 Ki intervals, %.2f ns over 64 Ki (ratio %.2f)", small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("the SOS probe scales with the state: %.2f ns over 1 Ki intervals, %.2f over 64 Ki", small, large)
	}
}
