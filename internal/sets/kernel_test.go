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
			switch op := rng.Intn(7); op {
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
			}
			checkAgainstRef(t, "mutate", s, r, span)
		}
		// Derived-set kernels from the final state.
		o, or := randSet()
		u, ur := s.Union(o), r.clone()
		ur.union(or)
		checkAgainstRef(t, "union", u, ur, span)
		d, dr := s.Subtract(o), r.clone()
		dr.subtract(or)
		checkAgainstRef(t, "subtract", d, dr, span)
		x := s.Intersect(o)
		checkCanonical(t, "intersect", x)
		for a := uint64(0); a < span; a++ {
			if x.Contains(a) != (r[a] && or[a]) {
				t.Fatalf("intersect: addr %#x wrong", a)
			}
		}
		c := s.Clone()
		checkAgainstRef(t, "clone", c, r, span)
		if !reflect.DeepEqual(c, s) {
			t.Fatalf("clone not DeepEqual: %#v vs %#v", c, s)
		}
	}
}

// TestCanonicalAcrossHistories builds the same byte coverage along very
// different construction paths — inline-only, grown past inline and shrunk
// back, pooled and recycled, sharded and merged — and requires the results
// to be reflect.DeepEqual. This is the invariant the shard-invariance and
// streaming differential suites rest on.
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
		"pooled": func() *IntervalSet {
			tmp := GetSet()
			tmp.AddRange(0, 0x1000)
			PutSet(tmp)
			s := GetSet()
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
			return target().Split(3).Merge()
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
// matches Merge.
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
			if m := si.Merge(); !reflect.DeepEqual(m, s) {
				t.Fatalf("K=%d Merge: got %v want %v", k, m, s)
			}
		}
	}
}

// TestSteadyStateKernelAllocs pins the zero-allocation property of the
// kernels once pools are warm.
func TestSteadyStateKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	a := NewIntervalSet()
	b := NewIntervalSet()
	for i := uint64(0); i < 8; i++ {
		a.AddRange(0x100*i, 0x100*i+8)
		b.AddRange(0x100*i+4, 0x100*i+12)
	}
	scratch := GetSet()
	run := func() {
		s := GetSet()
		s.CopyFrom(a)
		s.UnionInPlace(b)
		s.SubtractInPlace(a)
		s.AddRange(0x5000, 0x5010)
		s.RemoveRange(0x5004, 0x500c)
		b.MergeInto(s)
		scratch.CopyFrom(s)
		PutSet(s)
	}
	run() // warm the pools
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("steady-state kernel allocs/op = %v, want 0", avg)
	}
}

// TestAssignDeltaVsReference checks the one-pass (prev − kill) ∪ gen kernel
// against the bitmap model and, canonical form included, against the three
// steps it fuses — over pools dirtied by every earlier round, from inline
// sets to sets of hundreds of intervals with sparse and dense deltas.
func TestAssignDeltaVsReference(t *testing.T) {
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

		out := GetSet()
		out.AddRange(0, 1+uint64(seed)) // stale contents must be discarded
		out.AssignDelta(prev, kill, gen)

		pr.subtract(kr)
		pr.union(gr)
		checkAgainstRef(t, "AssignDelta", out, pr, span)
		want := prev.Clone()
		want.SubtractInPlace(kill)
		want.UnionInPlace(gen)
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("seed %d: AssignDelta = %#v, three steps give %#v", seed, out, want)
		}
		if !reflect.DeepEqual(prev, prev0) || !reflect.DeepEqual(kill, kill0) || !reflect.DeepEqual(gen, gen0) {
			t.Fatalf("seed %d: AssignDelta modified an input", seed)
		}
		PutSet(out)
	}
}

// TestBackingPoolSizeClasses pins the pool fix: small overlay-sized sets and
// generation-sized sets draw from different size classes, so alternating
// between them neither drops a too-small backing nor parks a huge one behind
// eight intervals — and therefore allocates nothing once warm.
func TestBackingPoolSizeClasses(t *testing.T) {
	for _, min := range []int{1, 8, 9, 64, 65, 1 << 16, 1<<16 + 1} {
		b := getBacking(min)
		if len(b) != 0 || cap(b) < min || cap(b) >= 2*max(min, minBacking) {
			t.Fatalf("getBacking(%d): len %d cap %d", min, len(b), cap(b))
		}
		putBacking(b)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	big := NewIntervalSet()
	for i := uint64(0); i < 1<<16; i++ {
		big.AddRange(0x40*i, 0x40*i+0x20)
	}
	run := func() {
		small := GetSet()
		for i := uint64(0); i < 8; i++ {
			small.AddRange(0x40*i, 0x40*i+0x20)
		}
		gen := GetSet()
		gen.CopyFrom(big)
		if c := cap(small.ivs); c > 16 {
			t.Fatalf("an 8-interval set sits on a %d-interval backing", c)
		}
		PutSet(small)
		PutSet(gen)
	}
	run() // warm the pools
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("alternating small and generation-sized sets: %v allocs/round, want 0", avg)
	}
}
