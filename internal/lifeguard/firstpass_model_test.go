package lifeguard_test

import (
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/memcheck"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// The differential suites run the engine against referenceRun, and both call
// the lifeguard's own FirstPass: an LSOS that answers wrongly is wrong on
// both sides. This file is the check that has no such common mode — each
// interval lifeguard's first pass over one block against a per-byte LSOS
// that never sees an interval set, over an SOS large enough to be
// heap-backed (on odd seeds, large enough to carry a directory), a head,
// and an epoch l−2 row.

// byteRange reports whether every and whether any byte of e is set.
func byteRange(lsos []bool, e trace.Event) (all, any bool) {
	all = true
	for _, in := range lsos[e.Lo():e.Hi()] {
		all, any = all && in, any || in
	}
	return all, any
}

func fill(lsos []bool, e trace.Event, v bool) {
	for x := e.Lo(); x < e.Hi(); x++ {
		lsos[x] = v
	}
}

var blockModels = []struct {
	name    string
	lg      core.Lifeguard
	summary func(gen, kill *sets.IntervalSet) core.Summary
	// step applies e to the per-byte LSOS and names the report the first
	// pass owes for it ("" for none).
	step func(lsos []bool, e trace.Event) string
}{
	{
		name: "addrcheck",
		lg:   addrcheck.New(0),
		summary: func(gen, kill *sets.IntervalSet) core.Summary {
			return &addrcheck.Summary{Gen: gen, Kill: kill}
		},
		step: func(lsos []bool, e trace.Event) (code string) {
			all, any := byteRange(lsos, e)
			switch e.Kind {
			case trace.Read, trace.Write:
				if !all {
					code = addrcheck.CodeUnallocAccess
				}
			case trace.Alloc:
				if any {
					code = addrcheck.CodeDoubleAlloc
				}
				fill(lsos, e, true)
			case trace.Free:
				if !all {
					code = addrcheck.CodeUnallocFree
				}
				fill(lsos, e, false)
			}
			return code
		},
	},
	{
		name: "memcheck",
		lg:   memcheck.New(0),
		summary: func(gen, kill *sets.IntervalSet) core.Summary {
			return &memcheck.Summary{Gen: gen, Kill: kill}
		},
		step: func(lsos []bool, e trace.Event) (code string) {
			switch e.Kind {
			case trace.Read:
				if all, _ := byteRange(lsos, e); !all {
					code = memcheck.CodeUndefRead
				}
			case trace.Write:
				fill(lsos, e, true)
			case trace.Alloc, trace.Free:
				fill(lsos, e, false)
			}
			return code
		},
	},
}

func TestFirstPassMatchesByteModel(t *testing.T) {
	const span, T = 1024, 3
	for _, m := range blockModels {
		t.Run(m.name, func(t *testing.T) {
			// Each seed's pass refills the summary the seed before built,
			// as the engine hands a thread's summaries back.
			var reuse core.Summary
			for seed := int64(0); seed < 150; seed++ {
				rng := rand.New(rand.NewSource(seed))
				randSet := func(n int) *sets.IntervalSet {
					s := sets.NewIntervalSet()
					for ; n > 0; n-- {
						lo := uint64(rng.Intn(span - 16))
						s.AddRange(lo, lo+1+uint64(rng.Intn(16)))
					}
					return s
				}
				sos := randSet(rng.Intn(80))
				if seed%2 == 1 {
					// Short allocations on an 8-byte pitch: over a hundred
					// intervals, so the generation has a directory.
					sos = sets.NewIntervalSet()
					for lo := uint64(0); lo+8 <= span; lo += 8 {
						if rng.Intn(4) != 0 {
							sos.AddRange(lo, lo+1+uint64(rng.Intn(7)))
						}
					}
				}
				gen, gen0 := lifeguard.NewIntervalSOS(sos), lifeguard.NewIntervalSOS(sos)
				ctx := core.PassContext{SOS: gen}
				me := trace.ThreadID(rng.Intn(T))
				lsos := make([]bool, span)
				for x := range lsos {
					lsos[x] = sos.Contains(uint64(x))
				}
				if seed%4 != 0 {
					headGen, headKill := randSet(rng.Intn(6)), randSet(rng.Intn(6))
					ctx.Head = m.summary(headGen, headKill)
					ctx.Epoch2Back = make([]core.Summary, T)
					otherKills := sets.NewIntervalSet()
					for tt := range ctx.Epoch2Back {
						if rng.Intn(4) == 0 {
							continue
						}
						kill := randSet(rng.Intn(4))
						ctx.Epoch2Back[tt] = m.summary(sets.NewIntervalSet(), kill)
						if trace.ThreadID(tt) != me {
							otherKills.UnionInPlace(kill)
						}
					}
					for x := range lsos {
						a := uint64(x)
						lsos[x] = lsos[x] && !headKill.Contains(a) || headGen.Contains(a) && !otherKills.Contains(a)
					}
				}

				b := trace.NewBuilder(T).T(me)
				for i := 0; i < 120; i++ {
					lo, size := uint64(rng.Intn(span-24)), uint64(1+rng.Intn(24))
					switch rng.Intn(6) {
					case 0:
						b.Alloc(lo, size)
					case 1:
						b.Free(lo, size)
					case 2:
						b.Write(lo, size)
					default:
						b.Read(lo, size)
					}
				}
				g, err := epoch.ChunkByCount(b.Build(), 120)
				if err != nil {
					t.Fatal(err)
				}
				block := g.Blocks[0][me]

				var want []core.Report
				for i, e := range block.Events {
					if code := m.step(lsos, e); code != "" {
						want = append(want, core.Report{Ref: block.Ref(i), Code: code})
					}
				}
				ctx.Reuse = reuse
				sum, reports := m.lg.FirstPass(block, ctx)
				reuse = sum
				var got []core.Report
				for _, r := range reports {
					got = append(got, core.Report{Ref: r.Ref, Code: r.Code})
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: first pass reports\n got %v\nwant %v", seed, got, want)
				}
				if !reflect.DeepEqual(gen, gen0) {
					t.Fatalf("seed %d: the first pass wrote the SOS", seed)
				}
			}
		})
	}
}
