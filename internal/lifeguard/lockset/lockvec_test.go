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

// checkKernels runs every lock-vector kernel on a and b against the sets.Set
// model and reports the first disagreement. The inputs must be left intact.
func checkKernels(t *testing.T, a, b []uint64, k uint64) {
	t.Helper()
	ma, mb := sets.NewSet(a...), sets.NewSet(b...)
	a0, b0 := slices.Clone(a), slices.Clone(b)

	want := ma.Clone()
	want.Add(k)
	if got := insert(slices.Clone(a), k); !slices.Equal(got, vecOf(want)) {
		t.Fatalf("insert(%v, %d) = %v, want %v", a, k, got, vecOf(want))
	}
	want = ma.Clone()
	want.Remove(k)
	if got := remove(slices.Clone(a), k); !slices.Equal(got, vecOf(want)) {
		t.Fatalf("remove(%v, %d) = %v, want %v", a, k, got, vecOf(want))
	}
	if got := subset(a, b); got != ma.Subset(mb) {
		t.Fatalf("subset(%v, %v) = %v", a, b, got)
	}
	meet := vecOf(ma.Intersect(mb))
	if got := appendMeet(nil, a, b); !slices.Equal(got, meet) {
		t.Fatalf("appendMeet(%v, %v) = %v, want %v", a, b, got, meet)
	}
	if got := appendMeet([]uint64{7}, a, b); !slices.Equal(got, append([]uint64{7}, meet...)) {
		t.Fatalf("appendMeet kept no prefix: %v", got)
	}
	if got := meetInto(slices.Clone(a), b); !slices.Equal(got, meet) {
		t.Fatalf("meetInto(%v, %v) = %v, want %v", a, b, got, meet)
	}
	s := getSummary()
	defer putSummary(s)
	ka, kb := s.keep(a), s.keep(b)
	got := s.meet(ka, kb)
	if !slices.Equal(got, meet) || (got == nil) != (len(meet) == 0) {
		t.Fatalf("Summary.meet(%v, %v) = %#v, want %v", a, b, got, meet)
	}
	if n := len(s.arena); (subset(a, b) || subset(b, a)) && n != len(a)+len(b) {
		t.Fatalf("Summary.meet(%v, %v) copied an input (arena %d entries)", a, b, n)
	}
	if !slices.Equal(ka, a) || !slices.Equal(kb, b) || !slices.Equal(a, a0) || !slices.Equal(b, b0) {
		t.Fatalf("a kernel wrote into an input: a %v → %v / %v, b %v → %v / %v", a0, a, ka, b0, b, kb)
	}
}

// TestLockVecKernelsMatchSets checks insert, remove, subset, meet and
// meet-into against the map-based sets.Set, over empty, one-element and
// random vectors drawn from a small lock universe so overlaps are common.
func TestLockVecKernelsMatchSets(t *testing.T) {
	small := [][]uint64{nil, {3}, {5}, {3, 5}, {1, 3, 5, 7}}
	for _, a := range small {
		for _, b := range small {
			for _, k := range []uint64{0, 3, 4, 5, 8} {
				checkKernels(t, a, b, k)
			}
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
		checkKernels(t, randVec(), randVec(), uint64(rng.Intn(16)))
	}
}

// FuzzLockVec drives a held-set vector through an insert/remove program and
// checks every kernel against the sets.Set model after each step. Each byte
// is one step: the low bit picks insert or remove, the rest the lock (a
// 32-lock universe, so programs revisit locks); the vector built so far is
// met against the one of the previous step.
func FuzzLockVec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6})
	f.Add([]byte{6, 7, 7})
	f.Add([]byte{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 5, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var buf [8]uint64
		held, model := buf[:0], sets.NewSet()
		var prev []uint64
		for _, op := range prog {
			k := uint64(op>>1) % 32
			if op&1 == 0 {
				held = insert(held, k)
				model.Add(k)
			} else {
				held = remove(held, k)
				model.Remove(k)
			}
			if !slices.Equal(held, vecOf(model)) {
				t.Fatalf("held %v, model %v", held, model)
			}
			checkKernels(t, slices.Clip(held), prev, k)
			prev = slices.Clone(held)
		}
	})
}
