package sets

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{10, 20}
	if iv.Empty() || iv.Len() != 10 {
		t.Fatalf("interval %v: empty=%v len=%d", iv, iv.Empty(), iv.Len())
	}
	if !iv.Contains(10) || iv.Contains(20) || iv.Contains(9) {
		t.Fatal("half-open containment wrong")
	}
	if (Interval{5, 5}).Len() != 0 {
		t.Fatal("degenerate interval should be empty")
	}
}

// union, subtract and intersect return a new set and leave a and b as they
// are, over the in-place kernels; intersect is a − (a − b).
func union(a, b *IntervalSet) *IntervalSet {
	c := a.Clone()
	c.UnionInPlace(b)
	return c
}

func subtract(a, b *IntervalSet) *IntervalSet {
	c := a.Clone()
	c.SubtractInPlace(b)
	return c
}

func intersect(a, b *IntervalSet) *IntervalSet { return subtract(a, subtract(a, b)) }

func TestIntervalSetAddCoalesce(t *testing.T) {
	s := NewIntervalSet()
	s.AddRange(10, 20)
	s.AddRange(30, 40)
	if s.NumIntervals() != 2 || s.Bytes() != 20 {
		t.Fatalf("got %v", s)
	}
	// Touching intervals coalesce.
	s.AddRange(20, 30)
	if s.NumIntervals() != 1 || !s.ContainsRange(10, 40) {
		t.Fatalf("coalesce failed: %v", s)
	}
	// Overlapping add is idempotent on coverage.
	s.AddRange(15, 35)
	if s.NumIntervals() != 1 || s.Bytes() != 30 {
		t.Fatalf("overlapping add: %v", s)
	}
}

func TestIntervalSetRemoveSplit(t *testing.T) {
	s := NewIntervalSet(Interval{0, 100})
	s.RemoveRange(40, 60)
	if s.NumIntervals() != 2 || s.Contains(50) || !s.Contains(39) || !s.Contains(60) {
		t.Fatalf("split failed: %v", s)
	}
	s.RemoveRange(0, 40)
	s.RemoveRange(60, 100)
	if !s.Empty() {
		t.Fatalf("should be empty: %v", s)
	}
	// Removing from empty is a no-op.
	s.RemoveRange(0, 10)
	if !s.Empty() {
		t.Fatal("remove from empty changed the set")
	}
}

func TestIntervalSetContainsRange(t *testing.T) {
	s := NewIntervalSet(Interval{10, 20}, Interval{30, 40})
	if !s.ContainsRange(10, 20) || !s.ContainsRange(12, 15) {
		t.Error("ContainsRange should hold inside an interval")
	}
	if s.ContainsRange(15, 35) {
		t.Error("range spanning a hole must not be contained")
	}
	if !s.ContainsRange(5, 5) {
		t.Error("empty range is trivially contained")
	}
	if !s.OverlapsRange(15, 35) || s.OverlapsRange(20, 30) || s.OverlapsRange(0, 10) {
		t.Error("OverlapsRange wrong")
	}
}

func TestIntervalSetOps(t *testing.T) {
	a := NewIntervalSet(Interval{0, 10}, Interval{20, 30})
	b := NewIntervalSet(Interval{5, 25})
	u := union(a, b)
	if u.NumIntervals() != 1 || !u.ContainsRange(0, 30) {
		t.Errorf("union = %v", u)
	}
	i := intersect(a, b)
	want := NewIntervalSet(Interval{5, 10}, Interval{20, 25})
	if !i.Equal(want) {
		t.Errorf("intersect = %v, want %v", i, want)
	}
	d := subtract(a, b)
	wantD := NewIntervalSet(Interval{0, 5}, Interval{25, 30})
	if !d.Equal(wantD) {
		t.Errorf("subtract = %v, want %v", d, wantD)
	}
}

// refIntervalSet is a bitmap reference model over a tiny address space used
// to verify IntervalSet against a trivially correct implementation.
type refIntervalSet [64]bool

func (r *refIntervalSet) add(lo, hi uint64)    { r.each(lo, hi, true) }
func (r *refIntervalSet) remove(lo, hi uint64) { r.each(lo, hi, false) }
func (r *refIntervalSet) each(lo, hi uint64, v bool) {
	for a := lo; a < hi && a < 64; a++ {
		r[a] = v
	}
}

// op encodes a random mutation: add or remove of a random small range.
type ivOp struct {
	Add    bool
	Lo, Ln uint8
}

func TestIntervalSetMatchesReferenceModel(t *testing.T) {
	check := func(ops []ivOp) bool {
		s := NewIntervalSet()
		var r refIntervalSet
		for _, op := range ops {
			lo := uint64(op.Lo % 64)
			hi := lo + uint64(op.Ln%16)
			if op.Add {
				s.AddRange(lo, hi)
				r.add(lo, hi)
			} else {
				s.RemoveRange(lo, hi)
				r.remove(lo, hi)
			}
		}
		// Compare membership of every address, plus structural invariants.
		for a := uint64(0); a < 64; a++ {
			if s.Contains(a) != r[a] {
				return false
			}
		}
		ivs := s.Intervals()
		for i, iv := range ivs {
			if iv.Empty() {
				return false
			}
			if i > 0 && ivs[i-1].Hi >= iv.Lo { // sorted, coalesced
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIntervalSetAlgebraProperties(t *testing.T) {
	gen := func(ops []ivOp) *IntervalSet {
		s := NewIntervalSet()
		for _, op := range ops {
			lo := uint64(op.Lo % 64)
			hi := lo + uint64(op.Ln%16)
			if op.Add {
				s.AddRange(lo, hi)
			} else {
				s.RemoveRange(lo, hi)
			}
		}
		return s
	}
	cfg := &quick.Config{MaxCount: 300}
	// (a − b) ∩ b == ∅, (a − b) ∪ (a ∩ b) == a, a ∩ b == b ∩ a.
	if err := quick.Check(func(oa, ob []ivOp) bool {
		a, b := gen(oa), gen(ob)
		d := subtract(a, b)
		if !intersect(d, b).Empty() {
			return false
		}
		if !union(d, intersect(a, b)).Equal(a) {
			return false
		}
		return intersect(a, b).Equal(intersect(b, a))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Bytes(a ∪ b) == Bytes(a) + Bytes(b) − Bytes(a ∩ b).
	if err := quick.Check(func(oa, ob []ivOp) bool {
		a, b := gen(oa), gen(ob)
		return union(a, b).Bytes() == a.Bytes()+b.Bytes()-intersect(a, b).Bytes()
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestSearchHiMatchesSortSearch checks searchHi, both ways round, against
// sort.Search on random sorted, disjoint interval lists of every small
// length and at both ends of the address space, probing every interval
// end, its neighbours, and 0 and MaxUint64.
func TestSearchHiMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(v []Interval, x uint64) {
		t.Helper()
		for _, past := range []bool{false, true} {
			want := sort.Search(len(v), func(i int) bool { return v[i].Hi >= x && (!past || v[i].Hi > x) })
			if got := searchHi(v, x, past); got != want {
				t.Fatalf("searchHi(%v, %#x, past=%v) = %d, want %d", v, x, past, got, want)
			}
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n := trial % 40
		var base uint64
		switch trial % 3 {
		case 1:
			base = math.MaxUint64 - uint64(64*n+64) // the top of the address space
		case 2:
			base = rng.Uint64() >> 1
		}
		var v []Interval
		lo := base + uint64(rng.Intn(3))
		for range n {
			hi := lo + 1 + uint64(rng.Intn(30))
			v = append(v, Interval{lo, hi})
			lo = hi + 1 + uint64(rng.Intn(3))
		}
		probes := []uint64{0, 1, base, math.MaxUint64, math.MaxUint64 - 1}
		for _, iv := range v {
			probes = append(probes, iv.Lo, iv.Hi-1, iv.Hi, iv.Hi+1)
		}
		for _, x := range probes {
			check(v, x)
		}
	}
	// An interval ending at the very top: Hi = MaxUint64.
	top := []Interval{{0, 1}, {math.MaxUint64 - 2, math.MaxUint64}}
	for _, x := range []uint64{0, 1, math.MaxUint64 - 3, math.MaxUint64 - 1, math.MaxUint64} {
		check(top, x)
	}
}
