package sets

import (
	"math/rand"
	"slices"
	"testing"
)

// vecOf returns the sorted vector of a model set, nil when empty.
func vecOf(s Set) []uint64 {
	if s.Empty() {
		return nil
	}
	return s.Elems()
}

// checkVec runs every sorted-vector kernel on a and b (and the key k)
// against the map-backed Set model and reports the first disagreement. The
// inputs must be left intact.
func checkVec(t *testing.T, a, b []uint64, k uint64) {
	t.Helper()
	ma, mb := NewSet(a...), NewSet(b...)
	a0, b0 := slices.Clone(a), slices.Clone(b)

	i, found := Search(a, k)
	if want, _ := slices.BinarySearch(a, k); i != want || found != ma.Has(k) {
		t.Fatalf("Search(%v, %d) = (%d, %v), want (%d, %v)", a, k, i, found, want, ma.Has(k))
	}
	want := ma.Clone()
	want.Add(k)
	if got := Insert(slices.Clone(a), k); !slices.Equal(got, vecOf(want)) {
		t.Fatalf("Insert(%v, %d) = %v, want %v", a, k, got, vecOf(want))
	}
	want = ma.Clone()
	want.Remove(k)
	if got := Remove(slices.Clone(a), k); !slices.Equal(got, vecOf(want)) {
		t.Fatalf("Remove(%v, %d) = %v, want %v", a, k, got, vecOf(want))
	}
	if got := Subset(a, b); got != ma.Subset(mb) {
		t.Fatalf("Subset(%v, %v) = %v", a, b, got)
	}
	meet := vecOf(ma.Intersect(mb))
	if got := AppendMeet(nil, a, b); !slices.Equal(got, meet) {
		t.Fatalf("AppendMeet(%v, %v) = %v, want %v", a, b, got, meet)
	}
	if got := AppendMeet([]uint64{7}, a, b); !slices.Equal(got, append([]uint64{7}, meet...)) {
		t.Fatalf("AppendMeet kept no prefix: %v", got)
	}
	if got := MeetInto(slices.Clone(a), b); !slices.Equal(got, meet) {
		t.Fatalf("MeetInto(%v, %v) = %v, want %v", a, b, got, meet)
	}
	if !slices.Equal(a, a0) || !slices.Equal(b, b0) {
		t.Fatalf("a kernel wrote into an input: a %v → %v, b %v → %v", a0, a, b0, b)
	}
}

// TestVecKernelsMatchSet checks every kernel against the map-backed Set
// over empty, one-element and random vectors drawn from a small universe,
// so overlaps are common and keys fall before, between and after elements.
func TestVecKernelsMatchSet(t *testing.T) {
	small := [][]uint64{nil, {3}, {5}, {3, 5}, {1, 3, 5, 7}}
	for _, a := range small {
		for _, b := range small {
			for _, k := range []uint64{0, 3, 4, 5, 8} {
				checkVec(t, a, b, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	randVec := func() []uint64 {
		s := NewSet()
		for n := rng.Intn(14); n > 0; n-- {
			s.Add(uint64(rng.Intn(16)))
		}
		return vecOf(s)
	}
	for i := 0; i < 2000; i++ {
		checkVec(t, randVec(), randVec(), uint64(rng.Intn(16)))
	}
}

// FuzzSortedVec drives a vector through an Insert/Remove program and checks
// every kernel against the Set model after each step. Each byte is one
// step: the low bit picks Insert or Remove, the rest the key (a 32-key
// universe, so programs revisit keys); the vector built so far is met
// against the one of the previous step.
func FuzzSortedVec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6})
	f.Add([]byte{6, 7, 7})
	f.Add([]byte{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 5, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var buf [8]uint64
		v, model := buf[:0], NewSet()
		var prev []uint64
		for _, op := range prog {
			k := uint64(op>>1) % 32
			if op&1 == 0 {
				v = Insert(v, k)
				model.Add(k)
			} else {
				v = Remove(v, k)
				model.Remove(k)
			}
			if !slices.Equal(v, vecOf(model)) {
				t.Fatalf("vector %v, model %v", v, model)
			}
			checkVec(t, slices.Clip(v), prev, k)
			prev = slices.Clone(v)
		}
	})
}
