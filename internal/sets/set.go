// Package sets provides the set algebra used throughout butterfly analysis.
//
// Three families of sets are provided:
//
//   - Set: an unordered set of uint64 facts (definition IDs, expression IDs,
//     SSA tuples packed into 64 bits). All butterfly dataflow equations
//     (GEN, KILL, SOS, LSOS, the SIDE-IN/SIDE-OUT primitives) are unions,
//     intersections and differences over these. It is the reference form:
//     the oracles, the §5 analyses and the fuzzers' models use it.
//
//   - Sorted vectors: a plain sorted []uint64, the form LockSet and
//     TaintCheck keep their facts in, with the kernels of vec.go.
//
//   - IntervalSet: a set of half-open byte ranges [Lo, Hi) over the simulated
//     address space. AddrCheck metadata (allocated regions) is interval
//     valued because malloc/free operate on ranges, not single facts. A set
//     owns its storage and its kernels work inside it; there is no shared
//     pool. Reset keeps a heap backing for the set's next contents, so a
//     set its owner refills every epoch stops allocating once it has
//     reached its size.
//
// None of them is safe for concurrent mutation: the butterfly two-pass
// driver enforces a single-writer discipline (the paper's "one of the
// threads can be nominated to act as master"), and summaries are frozen
// before being released to readers.
package sets

import (
	"fmt"
	"sort"
	"strings"
)

// Set is a finite set of uint64 facts.
type Set map[uint64]struct{}

// NewSet returns a set containing the given elements.
func NewSet(elems ...uint64) Set {
	s := make(Set, len(elems))
	for _, e := range elems {
		s[e] = struct{}{}
	}
	return s
}

// Add inserts e into s.
func (s Set) Add(e uint64) { s[e] = struct{}{} }

// AddAll inserts every element of o into s.
func (s Set) AddAll(o Set) {
	for e := range o {
		s[e] = struct{}{}
	}
}

// Remove deletes e from s if present.
func (s Set) Remove(e uint64) { delete(s, e) }

// RemoveAll deletes every element of o from s.
func (s Set) RemoveAll(o Set) {
	for e := range o {
		delete(s, e)
	}
}

// Has reports whether e is a member of s.
func (s Set) Has(e uint64) bool {
	_, ok := s[e]
	return ok
}

// Len returns the cardinality of s.
func (s Set) Len() int { return len(s) }

// Empty reports whether s has no elements.
func (s Set) Empty() bool { return len(s) == 0 }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for e := range s {
		c[e] = struct{}{}
	}
	return c
}

// Union returns a new set holding s ∪ o.
func (s Set) Union(o Set) Set {
	c := s.Clone()
	c.AddAll(o)
	return c
}

// Intersect returns a new set holding s ∩ o.
func (s Set) Intersect(o Set) Set {
	small, large := s, o
	if len(o) < len(s) {
		small, large = o, s
	}
	c := make(Set)
	for e := range small {
		if large.Has(e) {
			c.Add(e)
		}
	}
	return c
}

// IntersectInPlace removes from s every element not in o.
func (s Set) IntersectInPlace(o Set) {
	for e := range s {
		if !o.Has(e) {
			delete(s, e)
		}
	}
}

// Difference returns a new set holding s − o.
func (s Set) Difference(o Set) Set {
	c := make(Set)
	for e := range s {
		if !o.Has(e) {
			c.Add(e)
		}
	}
	return c
}

// Equal reports whether s and o contain exactly the same elements.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for e := range s {
		if !o.Has(e) {
			return false
		}
	}
	return true
}

// Subset reports whether every element of s is in o.
func (s Set) Subset(o Set) bool {
	if len(s) > len(o) {
		return false
	}
	for e := range s {
		if !o.Has(e) {
			return false
		}
	}
	return true
}

// Elems returns the elements of s in ascending order.
func (s Set) Elems() []uint64 {
	out := make([]uint64, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders s as {e1, e2, ...} with sorted elements, for test output.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s.Elems() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte('}')
	return b.String()
}

// UnionAll returns the union of all the given sets as a new set.
func UnionAll(ss ...Set) Set {
	c := make(Set)
	for _, s := range ss {
		c.AddAll(s)
	}
	return c
}

// IntersectAll returns the intersection of all given sets. Intersecting zero
// sets is an error in set theory (it would be the universe); this returns an
// empty set in that case, which is the conservative choice for GEN-style
// facts ("nothing is known to reach").
func IntersectAll(ss ...Set) Set {
	if len(ss) == 0 {
		return make(Set)
	}
	c := ss[0].Clone()
	for _, s := range ss[1:] {
		for e := range c {
			if !s.Has(e) {
				delete(c, e)
			}
		}
	}
	return c
}
