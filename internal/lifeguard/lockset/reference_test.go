package lockset

// A reference the vector body cannot share a mistake with. The differential
// suites in internal/core compare engines, not lifeguards: referenceRun calls
// this package's own FirstPass/SecondPass/UpdateSOS, so a semantic slip in
// them is invisible there. refLockset is the map-based lifeguard the lock
// vectors replaced, transcribed without pooling or sharding: sets.Set
// locksets, map thread sets, pointer candidates. TestMatchesMapReference runs
// both over seeded traces and requires identical reports and an equal final
// SOS, compared through a canonical per-location dump.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

type refLockset struct{}

type refLocInfo struct {
	inter sets.Set
	write bool
}

type refSummary struct {
	thread              trace.ThreadID
	entryHeld, exitHeld sets.Set
	perLoc              map[uint64]*refLocInfo
}

type refCand struct {
	c       sets.Set // nil = virgin (universe)
	threads map[trace.ThreadID]struct{}
	write   bool
}

type refState struct{ perLoc map[uint64]*refCand }

// refIntersect returns a ∩ b where nil means the universe.
func refIntersect(a, b sets.Set) sets.Set {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil:
		return b.Clone()
	case b == nil:
		return a.Clone()
	default:
		return a.Intersect(b)
	}
}

func (refLockset) Name() string { return "lockset-map-reference" }

func (refLockset) BottomState() core.State { return &refState{perLoc: map[uint64]*refCand{}} }

func (refLockset) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := &refSummary{thread: b.Thread, entryHeld: sets.NewSet(), perLoc: map[uint64]*refLocInfo{}}
	if head, _ := ctx.Head.(*refSummary); head != nil {
		s.entryHeld.AddAll(head.exitHeld)
	}
	held := s.entryHeld.Clone()
	for _, e := range b.Events {
		switch e.Kind {
		case trace.Lock:
			held.Add(e.Addr)
		case trace.Unlock:
			held.Remove(e.Addr)
		case trace.Read, trace.Write:
			for a := e.Lo(); a < e.Hi(); a++ {
				li := s.perLoc[a]
				if li == nil {
					li = &refLocInfo{inter: held.Clone()}
					s.perLoc[a] = li
				} else {
					li.inter.IntersectInPlace(held)
				}
				li.write = li.write || e.Kind == trace.Write
			}
		}
	}
	s.exitHeld = held
	return s, nil
}

func (refLockset) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	sos := ctx.SOS.(*refState)
	own := ctx.Own.(*refSummary)
	held := own.entryHeld.Clone()
	type wingAgg struct {
		inter   sets.Set
		write   bool
		threads map[trace.ThreadID]struct{}
	}
	agg := map[uint64]*wingAgg{}
	for _, w := range wings {
		ws := w.(*refSummary)
		for a, li := range ws.perLoc {
			wa := agg[a]
			if wa == nil {
				wa = &wingAgg{threads: map[trace.ThreadID]struct{}{}}
				agg[a] = wa
			}
			wa.inter = refIntersect(wa.inter, li.inter)
			wa.write = wa.write || li.write
			wa.threads[ws.thread] = struct{}{}
		}
	}
	var reports []core.Report
	flagged := sets.NewSet()
	for i, e := range b.Events {
		switch e.Kind {
		case trace.Lock:
			held.Add(e.Addr)
		case trace.Unlock:
			held.Remove(e.Addr)
		case trace.Read, trace.Write:
			var raceLo, raceHi uint64
			var raceThreads sets.Set
			for a := e.Lo(); a < e.Hi(); a++ {
				if flagged.Has(a) {
					continue
				}
				eff := held.Clone()
				thr := sets.NewSet(uint64(b.Thread))
				write := e.Kind == trace.Write
				if sc, ok := sos.perLoc[a]; ok {
					if sc.c != nil {
						eff.IntersectInPlace(sc.c)
					}
					write = write || sc.write
					for t := range sc.threads {
						thr.Add(uint64(t))
					}
				}
				if wa, ok := agg[a]; ok {
					if wa.inter != nil {
						eff.IntersectInPlace(wa.inter)
					}
					write = write || wa.write
					for t := range wa.threads {
						thr.Add(uint64(t))
					}
				}
				if li, ok := own.perLoc[a]; ok {
					eff.IntersectInPlace(li.inter)
					write = write || li.write
				}
				if eff.Empty() && thr.Len() >= 2 && write {
					flagged.Add(a)
					if raceThreads == nil {
						raceLo, raceThreads = a, thr
					}
					raceHi = a + 1
				}
			}
			if raceThreads != nil {
				ids := make([]int, 0, raceThreads.Len())
				for _, t := range raceThreads.Elems() {
					ids = append(ids, int(t))
				}
				reports = append(reports, core.Report{
					Ref: b.Ref(i), Ev: e, Code: CodeRace,
					Detail: fmt.Sprintf("no common lock protects [%#x,%#x) (threads: %s)",
						raceLo, raceHi, fmt.Sprint(ids)),
				})
			}
		}
	}
	return reports
}

func (refLockset) UpdateSOS(prev, _ core.State, prevEpoch, curEpoch []core.Summary) core.State {
	next := &refState{perLoc: map[uint64]*refCand{}}
	for a, c := range prev.(*refState).perLoc {
		nc := &refCand{c: c.c.Clone(), write: c.write, threads: map[trace.ThreadID]struct{}{}}
		for t := range c.threads {
			nc.threads[t] = struct{}{}
		}
		next.perLoc[a] = nc
	}
	for _, s := range curEpoch {
		bs := s.(*refSummary)
		for a, li := range bs.perLoc {
			c := next.perLoc[a]
			if c == nil {
				c = &refCand{threads: map[trace.ThreadID]struct{}{}}
				next.perLoc[a] = c
			}
			c.c = refIntersect(c.c, li.inter)
			c.write = c.write || li.write
			c.threads[bs.thread] = struct{}{}
		}
	}
	return next
}

// dumpSOS renders either SOS representation as one sorted line per
// location: address, candidate locks, threads and the write bit.
func dumpSOS(s core.State) []string {
	line := func(a uint64, locks []uint64, threads []int, write bool) string {
		sort.Slice(locks, func(i, j int) bool { return locks[i] < locks[j] })
		sort.Ints(threads)
		return fmt.Sprintf("%#x locks=%v threads=%v write=%v", a, locks, threads, write)
	}
	var out []string
	switch st := s.(type) {
	case *state:
		for _, a := range genLocations(st) {
			if c, ok := st.lookup(a); ok {
				out = append(out, line(a, append([]uint64{}, c.ls...), c.threads.appendIDs(nil), c.write))
			}
		}
	case *refState:
		for a, c := range st.perLoc {
			var threads []int
			for t := range c.threads {
				threads = append(threads, int(t))
			}
			out = append(out, line(a, c.c.Elems(), threads, c.write))
		}
	}
	sort.Strings(out)
	return out
}

// genLocations returns every location generation s may hold a candidate
// for: the keys of the undo records on its way to the newest generation and
// of the live map.
func genLocations(s *state) []uint64 {
	s.lookup(0) // a generation handed back panics here, not in the walk below
	seen := map[uint64]bool{}
	g := s
	for ; g.live == nil; g = g.next {
		for a := range g.undo {
			seen[a] = true
		}
	}
	for a := range g.live {
		seen[a] = true
	}
	locs := make([]uint64, 0, len(seen))
	for a := range seen {
		locs = append(locs, a)
	}
	return locs
}

// refTrace is one seeded trace for the reference suite. Shapes, by seed:
//
//	0: random lock/unlock/access traffic over 12 locks, with unlocks of
//	   locks not held and multi-byte accesses over a 24-byte window, so
//	   ranges straddle bytes flagged earlier in the block;
//	1: deep nesting — runs of 9–12 nested acquisitions, past the 8-entry
//	   inline scratch of both passes, with accesses at every depth;
//	2: the benchmark's genLockset shape — every access inside a critical
//	   section of the lock guarding its byte (v by lock v mod 8), plus a
//	   sprinkle of unguarded writes so some candidates do empty.
//
// Threads get 0–n events, so some blocks are empty; n is smaller at T > 8,
// where every second pass walks 3(T−1) wings.
func refTrace(rng *rand.Rand, nthreads, shape int) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	const base = 0x1000
	lock := func(k int) uint64 { return 0x8000 + uint64(k)*8 }
	access := func(addr, size uint64) {
		if rng.Intn(3) == 0 {
			b.Write(addr, size)
		} else {
			b.Read(addr, size)
		}
	}
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		n := rng.Intn(40)
		if nthreads > 8 {
			n /= 8
		}
		if rng.Intn(6) == 0 {
			n = 0
		}
		switch shape {
		case 0:
			for i := 0; i < n; i++ {
				switch r := rng.Intn(10); {
				case r < 2:
					b.Lock(lock(rng.Intn(12)))
				case r < 4:
					b.Unlock(lock(rng.Intn(12))) // often not held
				default:
					access(base+uint64(rng.Intn(24)), uint64(1+rng.Intn(6)))
				}
			}
		case 1:
			for i := 0; i < n; i += 8 {
				depth := 9 + rng.Intn(4)
				perm := rng.Perm(12)[:depth]
				for _, k := range perm {
					b.Lock(lock(k))
					access(base+uint64(rng.Intn(16)), uint64(1+rng.Intn(3)))
				}
				for _, k := range rng.Perm(depth) {
					b.Unlock(lock(perm[k]))
					if rng.Intn(2) == 0 {
						access(base+uint64(rng.Intn(16)), 1)
					}
				}
			}
		case 2:
			for i := 0; i < n; i += 4 {
				if rng.Intn(10) == 0 {
					b.Write(base+uint64(rng.Intn(64)), 1)
					continue
				}
				k := rng.Intn(8)
				b.Lock(lock(k))
				for j := 1 + rng.Intn(4); j > 0; j-- {
					access(base+uint64(rng.Intn(8)*8+k), 1)
				}
				b.Unlock(lock(k))
			}
		}
	}
	return b.Build()
}

func TestMatchesMapReference(t *testing.T) {
	spilled := 0 // reports listing a thread id from the spill
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := []int{1, 2, 4, 8, 70}[seed%5]
		shape := int(seed/5) % 3
		h := []int{1, 2, 3, 5, 8, 16}[rng.Intn(6)]
		if T > 8 {
			h = 5 + h%4 // few epochs: the reference folds all 3(T−1) wings per block
		}
		g, err := epoch.ChunkWithSkew(refTrace(rng, T, shape), h, rng.Intn(h), seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fmt.Sprintf("seed=%d T=%d shape=%d h=%d", seed, T, shape, h)
		want := (&core.Driver{LG: refLockset{}}).Run(g)
		got := (&core.Driver{LG: New(), Parallel: seed%2 == 1}).Run(g)
		if !reflect.DeepEqual(got.Reports, want.Reports) {
			t.Fatalf("%s: reports diverge from the map reference\n got: %v\nwant: %v", cfg, got.Reports, want.Reports)
		}
		if gs, ws := dumpSOS(got.FinalSOS), dumpSOS(want.FinalSOS); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s: final SOS diverges from the map reference\n got: %v\nwant: %v", cfg, gs, ws)
		}
		for _, r := range got.Reports {
			ids := reportThreads(t, r.Detail)
			if !sort.IntsAreSorted(ids) {
				t.Fatalf("%s: thread list not sorted: %s", cfg, r.Detail)
			}
			if ids[len(ids)-1] >= 64 {
				spilled++
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no report lists a thread id >= 64: the spill went untested")
	}
}

// reportThreads parses the thread list out of a race report's detail.
func reportThreads(t *testing.T, detail string) []int {
	t.Helper()
	_, list, ok := strings.Cut(detail, "(threads: [")
	list, _, ok2 := strings.Cut(list, "])")
	if !ok || !ok2 {
		t.Fatalf("no thread list in %q", detail)
	}
	var ids []int
	for _, f := range strings.Fields(list) {
		id, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("thread list in %q: %v", detail, err)
		}
		ids = append(ids, id)
	}
	if len(ids) < 2 {
		t.Fatalf("a race needs two threads: %q", detail)
	}
	return ids
}

// TestThreadSetSpill pins the thread set across the spill: ids above 63 list
// after the mask's in ascending order, and with never writes into a spill
// another candidate may share.
func TestThreadSetSpill(t *testing.T) {
	var ts threadSet
	for _, id := range []trace.ThreadID{69, 3, 64, 0, 66, 3, 64} {
		ts = ts.with(id)
	}
	if got := fmt.Sprint(ts.appendIDs(nil)); got != "[0 3 64 66 69]" {
		t.Fatalf("thread set lists %s", got)
	}
	before := ts.spill
	_ = ts.with(65)
	if fmt.Sprint(before) != "[64 66 69]" {
		t.Fatalf("with wrote into a shared spill: %v", before)
	}
	if !ts.hasOther(0) || !ts.hasOther(64) || !ts.hasOther(70) {
		t.Error("hasOther missed a member of a five-thread set")
	}
	one, spilt := threadSet{}.with(5), threadSet{}.with(65)
	if one.hasOther(5) || !one.hasOther(6) || spilt.hasOther(65) || !spilt.hasOther(66) || !spilt.hasOther(5) {
		t.Error("hasOther wrong on a one-thread set")
	}
}
