package sets

import "slices"

// Sorted vectors: a set of uint64 facts held as a sorted []uint64 without
// duplicates, nil being the empty set. Lockset's locksets and TaintCheck's
// location lists are sorted vectors. Insert and Remove edit their vector in
// place; AppendMeet writes past dst's length and MeetInto narrows its own
// first argument, so no kernel ever writes into a vector it only reads.

// b2i compiles to a flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Search returns the index of x in the sorted vector v and whether x is
// there; when it is not, the index is where Insert would put it. The
// halving loop has no data-dependent branch, so a mispredicted comparison
// costs nothing; on the benchmark's taint traffic that made TaintCheck's
// feed loop about a quarter faster than the textbook search. Keep it within
// the compiler's inlining budget, and with it TaintCheck's sos.has.
func Search(v []uint64, x uint64) (i int, found bool) {
	n := len(v)
	for n > 1 {
		half := n >> 1
		i += half * b2i(v[i+half] <= x)
		n -= half
	}
	if n == 0 {
		return 0, false
	}
	if v[i] < x {
		return i + 1, false
	}
	return i, v[i] == x
}

// Insert adds x to v in place, growing v only when it is full.
func Insert(v []uint64, x uint64) []uint64 {
	if i, found := Search(v, x); !found {
		v = slices.Insert(v, i, x)
	}
	return v
}

// Remove deletes x from v in place.
func Remove(v []uint64, x uint64) []uint64 {
	if i, found := Search(v, x); found {
		v = slices.Delete(v, i, i+1)
	}
	return v
}

// Subset reports whether a ⊆ b.
func Subset(a, b []uint64) bool {
	if len(a) > len(b) {
		return false
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// AppendMeet appends a ∩ b to dst.
func AppendMeet(dst, a, b []uint64) []uint64 {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// MeetInto narrows v to v ∩ o in place.
func MeetInto(v, o []uint64) []uint64 {
	n, j := 0, 0
	for _, x := range v {
		for j < len(o) && o[j] < x {
			j++
		}
		if j < len(o) && o[j] == x {
			v[n] = x
			n++
			j++
		}
	}
	return v[:n]
}
