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

// TestIntervalKernelMatchesByteModel checks both kernels against the §5.2
// equations evaluated one byte at a time, and that no input is modified.
func TestIntervalKernelMatchesByteModel(t *testing.T) {
	const span, T = 64, 3
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sos := randIvSet(rng, span)
		back2 := randIvRow(rng, T, span, true)
		prevEpoch := randIvRow(rng, T, span, false)
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

		lsos := IntervalLSOS(me, core.PassContext{SOS: sos, Head: head, Epoch2Back: back2}, ivGenKill)
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
					if prevEpoch != nil {
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
		if !reflect.DeepEqual(lsos, wantL) {
			t.Fatalf("seed %d: IntervalLSOS = %v, byte model %v", seed, lsos, wantL)
		}
		if !reflect.DeepEqual(next, wantN) {
			t.Fatalf("seed %d: IntervalUpdateSOS = %v, byte model %v", seed, next, wantN)
		}
		sets.PutSet(lsos)
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
		if got := IntervalLSOS(0, ctx, ivGenKill); !reflect.DeepEqual(got, want) {
			t.Errorf("IntervalLSOS(%s) = %#v, want canonical empty", name, got)
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
