package lockset

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// chainRow builds one random epoch as both a row of block summaries and the
// matching row of map-reference summaries: each of a few distinct threads
// (some of them spill ids) touches up to 24 of 48 locations, each under a
// random subset of five locks. Candidates therefore sometimes shrink, gain a
// thread or a write, and sometimes stay as they are.
func chainRow(rng *rand.Rand) (row, ref []core.Summary, touched int) {
	locks := []uint64{0x10, 0x20, 0x30, 0x40, 0x50}
	threads := []trace.ThreadID{0, 1, 5, 63, 64, 70}
	seen := map[uint64]bool{}
	for _, i := range rng.Perm(len(threads))[:1+rng.Intn(4)] {
		s := summaryFor(core.PassContext{})
		s.thread = threads[i]
		rs := &refSummary{thread: s.thread, perLoc: map[uint64]*refLocInfo{}}
		for n := rng.Intn(25); n > 0; n-- {
			a := 0x1000 + uint64(rng.Intn(48))
			if _, dup := s.perLoc[a]; dup {
				continue
			}
			held := sets.NewSet()
			for _, k := range locks {
				if rng.Intn(5) != 0 {
					held.Add(k)
				}
			}
			write := rng.Intn(4) == 0
			s.perLoc[a] = locInfo{inter: s.keep(vecOf(held)), write: write}
			rs.perLoc[a] = &refLocInfo{inter: held, write: write}
			seen[a] = true
		}
		row, ref = append(row, s), append(ref, rs)
	}
	return row, ref, len(seen)
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestVersionChainMatchesFlatModel feeds random epochs through UpdateSOS in
// the engine's order — SOS_{k+1} is the update of SOS_k, built in the shell
// of SOS_{k−1}, and then the epoch's summaries are reused — and checks, after
// every step, that the newest generation and its predecessor, read through
// the chain, hold what the map reference's flat copies hold, with matching
// StateSize. A superseded generation must refuse to be updated, and in race
// builds, where a generation handed back is poisoned rather than reused, to
// be read.
func TestVersionChainMatchesFlatModel(t *testing.T) {
	lg, ref := New(), refLockset{}
	partial, full := 0, 0 // updates that wrote fewer / all of the locations they saw
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prev, cur := lg.BottomState(), lg.BottomState()
		refPrev, refCur := ref.BottomState(), ref.BottomState()
		var dead *state // the generation handed back one step earlier
		for k := 0; k < 30; k++ {
			row, refRow, touched := chainRow(rng)
			next := lg.UpdateSOS(cur, prev, nil, row)
			refNext := ref.UpdateSOS(refCur, nil, nil, refRow)
			if written := len(cur.(*state).undo); written < touched {
				partial++
			} else {
				full++
			}
			mustPanic(t, "UpdateSOS of a superseded generation", func() { lg.UpdateSOS(cur, nil, nil, nil) })
			if sets.RaceEnabled {
				mustPanic(t, "a read of a generation just handed back", func() { prev.(*state).lookup(0x1000) })
				if dead != nil {
					mustPanic(t, "a read of a generation handed back a step ago", func() { dead.lookup(0x1000) })
				}
			} else if next != prev {
				t.Fatalf("seed %d epoch %d: the update did not reuse the dead generation's shell", seed, k)
			}
			for _, s := range row {
				summaryFor(core.PassContext{Reuse: s}) // poisons the arenas in race builds: the SOS must own its locksets
			}
			dead = prev.(*state)
			prev, cur = cur, next
			refPrev, refCur = refCur, refNext

			for _, g := range []struct {
				name      string
				got, want core.State
			}{{"newest", cur, refCur}, {"predecessor", prev, refPrev}} {
				cfg := fmt.Sprintf("seed %d epoch %d %s", seed, k, g.name)
				if got, want := dumpSOS(g.got), dumpSOS(g.want); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the chain diverges from the flat model\n got: %v\nwant: %v", cfg, got, want)
				}
				if got, want := lg.StateSize(g.got), len(g.want.(*refState).perLoc); got != want {
					t.Fatalf("%s: StateSize = %d, model holds %d", cfg, got, want)
				}
			}
		}
	}
	if partial == 0 || full == 0 {
		t.Fatalf("%d updates wrote only part of what they saw and %d all of it: want both kinds", partial, full)
	}
}

// TestLocksetSOSUpdateIndependentOfStateSize is the gate on the version
// chain: an update costs what its epoch changed, not what the SOS holds.
// One fixed epoch shrinks the candidates of 64 locations and adds a thread
// to each; it runs as the update of a 1 Ki- and a 64 Ki-location SOS. As in
// the engine, where the epoch's second pass has just met the candidate of
// every location the update then visits, those candidates are read first,
// so the larger map's deeper probes are all the larger state may add. When
// every update began with a copy of the whole previous generation the ratio
// was about 150 (45 µs against 7 ms on a 2-vCPU x86-64 VM).
func TestLocksetSOSUpdateIndependentOfStateSize(t *testing.T) {
	if sets.RaceEnabled || testing.Short() {
		t.Skip("timing test")
	}
	const changed = 64
	lg := New()
	// summary has thread th access locations 0..n−1 holding locks.
	summary := func(th trace.ThreadID, n int, locks ...uint64) *Summary {
		s := summaryFor(core.PassContext{})
		s.thread = th
		ls := s.keep(locks)
		for a := 0; a < n; a++ {
			s.perLoc[uint64(a)] = locInfo{inter: ls, write: true}
		}
		return s
	}
	epoch := []core.Summary{summary(1, changed, 0x10)}
	nsPerEpoch := func(locs int) float64 {
		best := time.Duration(1 << 62)
		for rep := 0; rep < 20; rep++ {
			base := summary(0, locs, 0x10, 0x20)
			sos := lg.UpdateSOS(lg.BottomState(), nil, nil, []core.Summary{base})
			runtime.GC()
			var eff []uint64
			for a := uint64(0); a < changed; a++ {
				c, _ := sos.(*state).lookup(a) // the second pass's reads
				eff = sets.MeetInto(append(eff[:0], 0x10, 0x20), c.ls)
			}
			start := time.Now()
			next := lg.UpdateSOS(sos, nil, nil, epoch)
			best = min(best, time.Since(start))
			if got := lg.StateSize(next); got != locs {
				t.Fatalf("the epoch changed the SOS size: %d locations, want %d", got, locs)
			}
		}
		return float64(best.Nanoseconds())
	}
	small, large := nsPerEpoch(1<<10), nsPerEpoch(1<<16)
	t.Logf("SOS update: %.0f ns/epoch over %d locations, %.0f over %d (ratio %.2f)",
		small, 1<<10, large, 1<<16, large/small)
	if large > 3*small {
		t.Fatalf("the SOS update scales with the state: %.0f ns/epoch over %d locations, %.0f over %d",
			small, 1<<10, large, 1<<16)
	}
}
