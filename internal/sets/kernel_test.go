package sets

import (
	"math/rand"
	"reflect"
	"testing"
)

// refSet is a naive bitmap reference model over a small address window,
// used to cross-check the in-place interval kernels.
type refSet map[uint64]bool

func (r refSet) addRange(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		r[a] = true
	}
}

func (r refSet) removeRange(lo, hi uint64) {
	for a := lo; a < hi; a++ {
		delete(r, a)
	}
}

func (r refSet) union(o refSet) {
	for a := range o {
		r[a] = true
	}
}

func (r refSet) subtract(o refSet) {
	for a := range o {
		delete(r, a)
	}
}

func (r refSet) clone() refSet {
	c := make(refSet, len(r))
	for a := range r {
		c[a] = true
	}
	return c
}

func checkAgainstRef(t *testing.T, tag string, s *IntervalSet, r refSet, span uint64) {
	t.Helper()
	checkCanonical(t, tag, s)
	checkContents(t, tag, s, r, span)
}

// checkContents is checkAgainstRef for a set that may be on a kept backing.
func checkContents(t *testing.T, tag string, s *IntervalSet, r refSet, span uint64) {
	t.Helper()
	checkForm(t, tag, s)
	for a := uint64(0); a < span; a++ {
		if s.Contains(a) != r[a] {
			t.Fatalf("%s: addr %#x: set=%v ref=%v (set: %v)", tag, a, s.Contains(a), r[a], s)
		}
	}
}

// checkCanonical asserts the canonical-representation invariant that the
// reflect.DeepEqual-based differential suites depend on.
func checkCanonical(t *testing.T, tag string, s *IntervalSet) {
	t.Helper()
	if s.kept {
		t.Fatalf("%s: set is on a kept backing: %#v", tag, s)
	}
	checkForm(t, tag, s)
}

// checkForm asserts the representation invariant every set keeps: canonical
// form, or for a set Reset while heap-backed, sorted coalesced runs on its
// kept heap backing with the inline storage unused.
func checkForm(t *testing.T, tag string, s *IntervalSet) {
	t.Helper()
	n := len(s.ivs)
	for i := 1; i < n; i++ {
		if s.ivs[i].Lo <= s.ivs[i-1].Hi {
			t.Fatalf("%s: not sorted/coalesced: %v", tag, s)
		}
	}
	for _, iv := range s.ivs {
		if iv.Hi <= iv.Lo {
			t.Fatalf("%s: empty interval stored: %v", tag, s)
		}
	}
	switch {
	case s.kept:
		if s.ivs == nil || s.inl || s.inline() || s.small != [smallIvs]Interval{} {
			t.Fatalf("%s: kept set off its heap backing: %#v", tag, s)
		}
	case n == 0:
		if s.ivs != nil || s.inl || s.small != [smallIvs]Interval{} {
			t.Fatalf("%s: empty set not canonical: %#v", tag, s)
		}
	case n <= smallIvs:
		if !s.inl || !s.inline() {
			t.Fatalf("%s: small set not inline: %#v", tag, s)
		}
		for i := n; i < smallIvs; i++ {
			if s.small[i] != (Interval{}) {
				t.Fatalf("%s: inline tail not zeroed: %#v", tag, s)
			}
		}
	default:
		if s.inl || s.inline() || s.small != [smallIvs]Interval{} {
			t.Fatalf("%s: large set leaks inline state: %#v", tag, s)
		}
	}
}

// TestKernelsVsReference drives random sequences of every mutating kernel
// against the bitmap reference model.
func TestKernelsVsReference(t *testing.T) {
	const span = 256
	rng := rand.New(rand.NewSource(7))
	randRange := func() (uint64, uint64) {
		lo := rng.Uint64() % span
		return lo, lo + rng.Uint64()%24
	}
	randSet := func() (*IntervalSet, refSet) {
		s, r := NewIntervalSet(), make(refSet)
		for i, n := 0, rng.Intn(8); i < n; i++ {
			lo, hi := randRange()
			s.AddRange(lo, hi)
			r.addRange(lo, hi)
		}
		return s, r
	}
	for trial := 0; trial < 300; trial++ {
		s, r := NewIntervalSet(), make(refSet)
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(9); op {
			case 0, 1:
				lo, hi := randRange()
				s.AddRange(lo, hi)
				r.addRange(lo, hi)
			case 2:
				lo, hi := randRange()
				s.RemoveRange(lo, hi)
				r.removeRange(lo, hi)
			case 3:
				o, or := randSet()
				s.UnionInPlace(o)
				r.union(or)
			case 4:
				o, or := randSet()
				s.SubtractInPlace(o)
				r.subtract(or)
			case 5:
				o, or := randSet()
				o.MergeInto(s)
				r.union(or)
			case 6:
				o, or := randSet()
				s.CopyFrom(o)
				r = or.clone()
			case 7:
				s.UnionInPlace(s) // s ∪ s = s
			case 8:
				if rng.Intn(4) == 0 {
					s.SubtractInPlace(s) // s − s = ∅
					r = make(refSet)
				}
			}
			checkAgainstRef(t, "mutate", s, r, span)
		}
		// Derived-set kernels from the final state.
		o, or := randSet()
		u, ur := union(s, o), r.clone()
		ur.union(or)
		checkAgainstRef(t, "union", u, ur, span)
		d, dr := subtract(s, o), r.clone()
		dr.subtract(or)
		checkAgainstRef(t, "subtract", d, dr, span)
		c := s.Clone()
		checkAgainstRef(t, "clone", c, r, span)
		if !reflect.DeepEqual(c, s) {
			t.Fatalf("clone not DeepEqual: %#v vs %#v", c, s)
		}
	}
}

// TestCanonicalAcrossHistories builds the same byte coverage along very
// different construction paths — inline-only, grown past inline and shrunk
// back, reset and refilled, sharded and merged — and requires the results
// to be reflect.DeepEqual. This is the invariant the differential suites
// rest on.
func TestCanonicalAcrossHistories(t *testing.T) {
	target := func() *IntervalSet {
		s := NewIntervalSet()
		s.AddRange(0x100, 0x120)
		s.AddRange(0x200, 0x210)
		return s
	}
	build := map[string]func() *IntervalSet{
		"direct": target,
		"grown-then-shrunk": func() *IntervalSet {
			s := NewIntervalSet()
			for i := uint64(0); i < 8; i++ {
				s.AddRange(0x400+0x40*i, 0x408+0x40*i) // grow to heap backing
			}
			s.RemoveRange(0x300, 0x800)
			s.AddRange(0x100, 0x120)
			s.AddRange(0x200, 0x210)
			return s
		},
		"reset-refilled": func() *IntervalSet {
			s := NewIntervalSet(Interval{0, 0x1000})
			s.Reset()
			s.AddRange(0x100, 0x120)
			s.AddRange(0x200, 0x210)
			return s
		},
		"subtract": func() *IntervalSet {
			s := NewIntervalSet(Interval{0x100, 0x210})
			s.SubtractInPlace(NewIntervalSet(Interval{0x120, 0x200}))
			return s
		},
		"union-merge": func() *IntervalSet {
			s := NewIntervalSet(Interval{0x100, 0x110})
			o := NewIntervalSet(Interval{0x108, 0x120}, Interval{0x200, 0x210})
			s.UnionInPlace(o)
			return s
		},
		"shard-merge": func() *IntervalSet {
			s := NewIntervalSet()
			target().Split(3).MergeInto(s)
			return s
		},
		"copyfrom-reused": func() *IntervalSet {
			s := NewIntervalSet()
			for i := uint64(0); i < 8; i++ {
				s.AddRange(0x1000+0x40*i, 0x1008+0x40*i)
			}
			s.CopyFrom(target())
			return s
		},
	}
	want := target()
	checkCanonical(t, "want", want)
	for name, f := range build {
		got := f()
		checkCanonical(t, name, got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: not DeepEqual with direct construction:\n got %#v\nwant %#v", name, got, want)
		}
	}
	// Same check for an empty result reached via different histories.
	empties := map[string]func() *IntervalSet{
		"fresh": func() *IntervalSet { return NewIntervalSet() },
		"emptied-small": func() *IntervalSet {
			s := target()
			s.RemoveRange(0, 0x1000)
			return s
		},
		"emptied-large": func() *IntervalSet {
			s := NewIntervalSet()
			for i := uint64(0); i < 8; i++ {
				s.AddRange(0x40*2*i, 0x40*2*i+8)
			}
			s.SubtractInPlace(s.Clone())
			return s
		},
		"reset": func() *IntervalSet {
			s := target()
			s.Reset()
			return s
		},
	}
	wantEmpty := NewIntervalSet()
	for name, f := range empties {
		got := f()
		checkCanonical(t, name, got)
		if !reflect.DeepEqual(got, wantEmpty) {
			t.Errorf("%s: empty set not DeepEqual with fresh: %#v", name, got)
		}
	}
}

// TestMergeIntoSharded checks ShardedIntervals.MergeInto reuses dst and
// restores the split set.
func TestMergeIntoSharded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		s := NewIntervalSet()
		for i, n := 0, rng.Intn(20); i < n; i++ {
			lo := rng.Uint64() % 4096
			s.AddRange(lo, lo+1+rng.Uint64()%100)
		}
		for _, k := range []int{1, 2, 3, 8} {
			si := s.Split(k)
			dst := NewIntervalSet()
			dst.AddRange(9999, 12345) // stale contents must be discarded
			si.MergeInto(dst)
			if !reflect.DeepEqual(dst, s) {
				t.Fatalf("K=%d MergeInto: got %v want %v", k, dst, s)
			}
		}
	}
}

// TestKernelsOnKeptSets is TestKernelsVsReference's random mix with Reset
// in it: once a set is Reset while heap-backed it stays on that backing,
// and every kernel must keep working inside it, whatever the set's size.
func TestKernelsOnKeptSets(t *testing.T) {
	const span = 256
	rng := rand.New(rand.NewSource(9))
	randSet := func() (*IntervalSet, refSet) {
		s, r := NewIntervalSet(), make(refSet)
		for i, n := 0, rng.Intn(12); i < n; i++ {
			lo := rng.Uint64() % span
			hi := lo + rng.Uint64()%24
			s.AddRange(lo, hi)
			r.addRange(lo, hi)
		}
		return s, r
	}
	kept := 0
	for trial := 0; trial < 300; trial++ {
		s, r := NewIntervalSet(), make(refSet)
		for step := 0; step < 60; step++ {
			o, or := randSet()
			switch rng.Intn(8) {
			case 0:
				s.Reset()
				r = make(refSet)
			case 1:
				for _, iv := range o.ivs {
					s.AddRange(iv.Lo, iv.Hi)
				}
				r.union(or)
			case 2:
				for _, iv := range o.ivs {
					s.RemoveRange(iv.Lo, iv.Hi)
				}
				r.subtract(or)
			case 3:
				s.UnionInPlace(o)
				r.union(or)
			case 4:
				s.SubtractInPlace(o)
				r.subtract(or)
			case 5:
				s.CopyFrom(o)
				r = or
			case 6:
				g, _ := randSet()
				s.AssignDelta(o, g, intersect(o, g)) // (o − g) ∪ (o ∩ g) = o
				r = or
			case 7:
				s.UnionInPlace(s)
				if rng.Intn(3) == 0 {
					s.SubtractInPlace(s)
					r = make(refSet)
				}
			}
			checkContents(t, "kept mix", s, r, span+32)
			if s.kept {
				kept++
			}
		}
		if c := s.Clone(); !c.Equal(s) {
			t.Fatalf("clone of %v is %v", s, c)
		} else {
			checkCanonical(t, "clone of a kept set", c)
		}
	}
	if kept == 0 && !raceEnabled { // race builds drop what Reset would keep
		t.Fatal("no set ever ran on a kept backing")
	}
}

// TestKernelsInExactBackings runs the in-place kernels on kept sets whose
// backing has exactly the room the kernel may need, so the merge runs with
// s's intervals packed against the end of the backing and the write cursor
// closing on the read cursor; and with the kernels' aliased operands.
func TestKernelsInExactBackings(t *testing.T) {
	const span = 256
	rng := rand.New(rand.NewSource(3))
	randSet := func(n int) (*IntervalSet, refSet) {
		s, r := NewIntervalSet(), make(refSet)
		for i := rng.Intn(n + 1); i > 0; i-- {
			lo := rng.Uint64() % span
			hi := lo + 1 + rng.Uint64()%12
			s.AddRange(lo, hi)
			r.addRange(lo, hi)
		}
		return s, r
	}
	// kept returns a kept set holding s's intervals in a backing of exactly
	// c slots.
	kept := func(s *IntervalSet, c int) *IntervalSet {
		return &IntervalSet{ivs: append(make([]Interval, 0, c), s.ivs...), kept: true}
	}
	for trial := 0; trial < 2000; trial++ {
		a, ar := randSet(24)
		b, br := randSet(24)
		u, ur := kept(a, len(a.ivs)+len(b.ivs)), ar.clone()
		u.UnionInPlace(b)
		ur.union(br)
		checkContents(t, "union", u, ur, span+16)

		// SubtractInPlace needs room for the intervals of b within a's span.
		d, dr := kept(a, len(a.ivs)), ar.clone()
		if n := len(a.ivs); n > 0 {
			lo := b.search(a.ivs[0].Lo)
			hi := lo
			for hi < len(b.ivs) && b.ivs[hi].Lo < a.ivs[n-1].Hi {
				hi++
			}
			d = kept(a, n+hi-lo)
		}
		d.SubtractInPlace(b)
		dr.subtract(br)
		checkContents(t, "subtract", d, dr, span+16)

		g, gr := randSet(6)
		x, xr := kept(NewIntervalSet(), len(a.ivs)+len(b.ivs)+len(g.ivs)), ar.clone()
		x.AssignDelta(a, b, g)
		xr.subtract(br)
		xr.union(gr)
		checkContents(t, "AssignDelta", x, xr, span+16)

		s, sr := kept(a, len(a.ivs)), ar.clone()
		s.UnionInPlace(s)
		checkContents(t, "s ∪ s", s, sr, span+16)
		s.SubtractInPlace(s)
		checkContents(t, "s − s", s, make(refSet), span+16)
		if !s.kept || s.ivs == nil {
			t.Fatalf("s − s dropped the kept backing: %#v", s)
		}
	}
}

// TestSteadyStateKernelAllocs pins the zero-allocation property of the
// kernels on sets their owner refills: once a set has reached its size,
// Reset keeps its backing and every kernel works inside it.
func TestSteadyStateKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds poison reclaimed backings instead of reusing them")
	}
	a := NewIntervalSet()
	b := NewIntervalSet()
	for i := uint64(0); i < 8; i++ {
		a.AddRange(0x100*i, 0x100*i+8)
		b.AddRange(0x100*i+4, 0x100*i+12)
	}
	var s, scratch IntervalSet
	run := func() {
		s.Reset()
		s.CopyFrom(a)
		s.UnionInPlace(b)
		s.SubtractInPlace(a)
		s.AddRange(0x5000, 0x5010)
		s.RemoveRange(0x5004, 0x500c)
		b.MergeInto(&s)
		scratch.CopyFrom(&s)
	}
	run() // grow the sets to their size
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state kernel allocs/op = %v, want 0", avg)
	}
}

// TestAssignDeltaVsReference checks the one-pass (prev − kill) ∪ gen kernel
// against the bitmap model and, canonical form included, against the three
// steps it fuses — into a fresh set, and into one reset from the previous
// round's result the way a dead SOS generation carries the next one — from
// inline sets to sets of hundreds of intervals with sparse and dense
// deltas.
func TestAssignDeltaVsReference(t *testing.T) {
	reused := NewIntervalSet()
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := []uint64{64, 256, 4096}[seed%3]
		randSet := func(n int, maxLen uint64) (*IntervalSet, refSet) {
			s, r := NewIntervalSet(), make(refSet)
			for i := rng.Intn(n + 1); i > 0; i-- {
				lo := rng.Uint64() % span
				hi := min(lo+1+rng.Uint64()%maxLen, span)
				s.AddRange(lo, hi)
				r.addRange(lo, hi)
			}
			return s, r
		}
		prev, pr := randSet(int(span/4), 6)
		delta := []int{0, 3, 40}[seed/3%3] // none, sparse, dense
		kill, kr := randSet(delta, 24)
		gen, gr := randSet(delta, 24)
		prev0, kill0, gen0 := prev.Clone(), kill.Clone(), gen.Clone()

		out := NewIntervalSet()
		out.AddRange(0, 1+uint64(seed)) // stale contents must be discarded
		out.AssignDelta(prev, kill, gen)
		reused.Reset()
		reused.AssignDelta(prev, kill, gen)

		pr.subtract(kr)
		pr.union(gr)
		checkAgainstRef(t, "AssignDelta", out, pr, span)
		checkContents(t, "AssignDelta into a reset set", reused, pr, span)
		want := prev.Clone()
		want.SubtractInPlace(kill)
		want.UnionInPlace(gen)
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("seed %d: AssignDelta = %#v, three steps give %#v", seed, out, want)
		}
		if !reflect.DeepEqual(prev, prev0) || !reflect.DeepEqual(kill, kill0) || !reflect.DeepEqual(gen, gen0) {
			t.Fatalf("seed %d: AssignDelta modified an input", seed)
		}
	}
}

// TestAlternatingSetSizesAllocFree pins what the size classes of the old
// backing pools were for, now that each set owns its storage: an
// overlay-sized set and a generation-sized set refilled in turn each keep
// their own backing, so the small one never sits on a huge backing and
// neither allocates once it has reached its size.
func TestAlternatingSetSizesAllocFree(t *testing.T) {
	for _, n := range []int{1, 8, 9, 64, 65, 1 << 16, 1<<16 + 1} {
		if b := newBacking(n); len(b) != 0 || cap(b) < n || cap(b) >= 2*max(n, minBacking) {
			t.Fatalf("newBacking(%d): len %d cap %d", n, len(b), cap(b))
		}
	}
	if raceEnabled {
		t.Skip("race builds poison reclaimed backings instead of reusing them")
	}
	big := NewIntervalSet()
	for i := uint64(0); i < 1<<16; i++ {
		big.AddRange(0x40*i, 0x40*i+0x20)
	}
	var small, gen IntervalSet
	run := func() {
		small.Reset()
		for i := uint64(0); i < 8; i++ {
			small.AddRange(0x40*i, 0x40*i+0x20)
		}
		gen.Reset()
		gen.CopyFrom(big)
		if c := cap(small.ivs); c > 16 {
			t.Fatalf("an 8-interval set sits on a %d-interval backing", c)
		}
	}
	run() // grow both to their size
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("alternating small and generation-sized sets: %v allocs/round, want 0", avg)
	}
}
