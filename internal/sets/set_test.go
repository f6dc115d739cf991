package sets

import (
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(1, 2, 3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Has(2) || s.Has(4) {
		t.Fatalf("membership wrong: %v", s)
	}
	s.Add(4)
	s.Remove(1)
	if s.Has(1) || !s.Has(4) {
		t.Fatalf("after add/remove: %v", s)
	}
	if s.Empty() {
		t.Fatal("set should not be empty")
	}
	if !NewSet().Empty() {
		t.Fatal("fresh set should be empty")
	}
}

func TestSetUnionIntersectDifference(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 4, 5)
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Difference(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Difference = %v", got)
	}
}

func TestSetSubsetEqual(t *testing.T) {
	a := NewSet(1, 2)
	b := NewSet(1, 2, 3)
	if !a.Subset(b) {
		t.Error("a ⊆ b should hold")
	}
	if b.Subset(a) {
		t.Error("b ⊆ a should not hold")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should equal original")
	}
	if a.Equal(b) {
		t.Error("a != b")
	}
}

func TestSetElemsSorted(t *testing.T) {
	s := NewSet(5, 1, 3)
	e := s.Elems()
	if len(e) != 3 || e[0] != 1 || e[1] != 3 || e[2] != 5 {
		t.Fatalf("Elems = %v", e)
	}
	if s.String() != "{1, 3, 5}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestUnionAllIntersectAll(t *testing.T) {
	a, b, c := NewSet(1, 2), NewSet(2, 3), NewSet(2, 4)
	if got := UnionAll(a, b, c); !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("UnionAll = %v", got)
	}
	if got := IntersectAll(a, b, c); !got.Equal(NewSet(2)) {
		t.Errorf("IntersectAll = %v", got)
	}
	if got := IntersectAll(); !got.Empty() {
		t.Errorf("IntersectAll() = %v, want empty", got)
	}
	if got := UnionAll(); !got.Empty() {
		t.Errorf("UnionAll() = %v, want empty", got)
	}
}

// small converts raw fuzz input into a set over a small universe so that
// intersections are nonempty often enough to be interesting.
func small(raw []uint8) Set {
	s := NewSet()
	for _, v := range raw {
		s.Add(uint64(v % 16))
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	// Union is commutative and associative; intersection distributes.
	if err := quick.Check(func(ra, rb, rc []uint8) bool {
		a, b, c := small(ra), small(rb), small(rc)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			return false
		}
		// a ∩ (b ∪ c) == (a∩b) ∪ (a∩c)
		return a.Intersect(b.Union(c)).Equal(a.Intersect(b).Union(a.Intersect(c)))
	}, cfg); err != nil {
		t.Error(err)
	}

	// Difference: (a − b) ∩ b == ∅ and (a − b) ∪ (a ∩ b) == a.
	if err := quick.Check(func(ra, rb []uint8) bool {
		a, b := small(ra), small(rb)
		d := a.Difference(b)
		if !d.Intersect(b).Empty() {
			return false
		}
		return d.Union(a.Intersect(b)).Equal(a)
	}, cfg); err != nil {
		t.Error(err)
	}
}
