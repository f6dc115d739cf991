package lockset

import "slices"

// Lock vectors: a lockset is a sorted []uint64 of lock addresses without
// duplicates, and nil is the empty set. insert and remove edit a scratch
// vector in place (the held set of a pass); appendMeet writes past dst's
// length and meetInto narrows its own first argument, so neither ever writes
// into a lockset it only reads.

// insert adds k to v in place, growing v only when it is full.
func insert(v []uint64, k uint64) []uint64 {
	if i, found := slices.BinarySearch(v, k); !found {
		v = slices.Insert(v, i, k)
	}
	return v
}

// remove deletes k from v in place.
func remove(v []uint64, k uint64) []uint64 {
	if i, found := slices.BinarySearch(v, k); found {
		v = slices.Delete(v, i, i+1)
	}
	return v
}

// subset reports whether a ⊆ b.
func subset(a, b []uint64) bool {
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

// appendMeet appends a ∩ b to dst.
func appendMeet(dst, a, b []uint64) []uint64 {
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

// meetInto narrows v to v ∩ o in place.
func meetInto(v, o []uint64) []uint64 {
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
