package lockset

import (
	"math/rand"
	"slices"
	"testing"

	"butterfly/internal/sets"
)

// vecOf returns the sorted lock vector of a model set, nil when empty.
func vecOf(s sets.Set) []uint64 {
	if s.Empty() {
		return nil
	}
	return s.Elems()
}

// checkMeet runs Summary.keep and Summary.meet on a and b against the
// sets.Set model: the meet must be a ∩ b (nil exactly when empty), must
// return an input rather than copy it when one contains the other, and must
// leave both inputs intact. The shared vector kernels themselves are checked
// by internal/sets.
func checkMeet(t *testing.T, a, b []uint64) {
	t.Helper()
	a0, b0 := slices.Clone(a), slices.Clone(b)
	meet := vecOf(sets.NewSet(a...).Intersect(sets.NewSet(b...)))
	s := getSummary()
	defer putSummary(s)
	ka, kb := s.keep(a), s.keep(b)
	got := s.meet(ka, kb)
	if !slices.Equal(got, meet) || (got == nil) != (len(meet) == 0) {
		t.Fatalf("Summary.meet(%v, %v) = %#v, want %v", a, b, got, meet)
	}
	if n := len(s.arena); (sets.Subset(a, b) || sets.Subset(b, a)) && n != len(a)+len(b) {
		t.Fatalf("Summary.meet(%v, %v) copied an input (arena %d entries)", a, b, n)
	}
	if !slices.Equal(ka, a) || !slices.Equal(kb, b) || !slices.Equal(a, a0) || !slices.Equal(b, b0) {
		t.Fatalf("keep or meet wrote into an input: a %v → %v / %v, b %v → %v / %v", a0, a, ka, b0, b, kb)
	}
}

// TestLockVecKernelsMatchSets checks the summary's lock-vector kernels, keep
// and meet, against the map-based sets.Set, over empty, one-element and
// random vectors drawn from a small lock universe so overlaps are common.
func TestLockVecKernelsMatchSets(t *testing.T) {
	small := [][]uint64{nil, {3}, {5}, {3, 5}, {1, 3, 5, 7}}
	for _, a := range small {
		for _, b := range small {
			checkMeet(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	randVec := func() []uint64 {
		s := sets.NewSet()
		for n := rng.Intn(14); n > 0; n-- {
			s.Add(uint64(rng.Intn(16)))
		}
		return vecOf(s)
	}
	for i := 0; i < 2000; i++ {
		checkMeet(t, randVec(), randVec())
	}
}
