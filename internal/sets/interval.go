package sets

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is a half-open byte range [Lo, Hi) over the simulated address
// space. Intervals with Hi <= Lo are empty.
type Interval struct {
	Lo, Hi uint64
}

// Empty reports whether the interval contains no bytes.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns the number of bytes in the interval.
func (iv Interval) Len() uint64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Contains reports whether addr lies inside the interval.
func (iv Interval) Contains(addr uint64) bool { return iv.Lo <= addr && addr < iv.Hi }

// Overlaps reports whether two intervals share at least one byte.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Lo < o.Hi && o.Lo < iv.Hi
}

func (iv Interval) String() string { return fmt.Sprintf("[%#x,%#x)", iv.Lo, iv.Hi) }

// smallIvs is the inline-storage capacity: sets of up to this many intervals
// live entirely inside the IntervalSet value, with no heap backing. Event
// working sets coalesce aggressively, so the overwhelmingly common case —
// GEN/KILL of a block touching a handful of ranges — never allocates.
const smallIvs = 4

// IntervalSet is a set of bytes represented as sorted, coalesced,
// non-overlapping half-open intervals. The zero value is an empty set ready
// to use.
//
// Canonical representation. Differential tests compare states containing
// IntervalSets with reflect.DeepEqual across runs with different schedules
// and pooling histories, so the in-memory form must be a pure
// function of the set's contents. Every mutator restores (via norm):
//
//   - empty        ⇔ ivs == nil, small zeroed, inl == false
//   - 1..smallIvs  ⇔ ivs == small[:n] (inline), unused tail of small zeroed,
//     inl == true
//   - > smallIvs   ⇔ ivs heap-backed, small zeroed, inl == false
//
// Two sets covering the same bytes are therefore DeepEqual no matter how
// they were produced. Code constructing ivs directly must go through
// adoptSorted or end with norm().
type IntervalSet struct {
	ivs   []Interval // sorted by Lo; non-overlapping; non-adjacent (coalesced)
	small [smallIvs]Interval
	inl   bool // ivs is backed by small
}

// NewIntervalSet returns a set containing the given intervals.
func NewIntervalSet(ivs ...Interval) *IntervalSet {
	s := &IntervalSet{}
	for _, iv := range ivs {
		s.AddRange(iv.Lo, iv.Hi)
	}
	return s
}

// inline reports whether ivs currently points into small. It inspects the
// actual backing rather than trusting inl, because append can silently move
// a full inline backing to the heap mid-mutation.
func (s *IntervalSet) inline() bool {
	return len(s.ivs) > 0 && &s.ivs[0] == &s.small[0]
}

// norm restores the canonical representation after a mutation. It is cheap:
// one branch for large sets, at most a smallIvs-element copy/zero otherwise.
func (s *IntervalSet) norm() {
	n := len(s.ivs)
	switch {
	case n == 0:
		if s.inl {
			s.small = [smallIvs]Interval{}
		} else {
			putBacking(s.ivs)
		}
		s.ivs = nil
		s.inl = false
	case n <= smallIvs:
		if s.inline() {
			for i := n; i < smallIvs; i++ {
				s.small[i] = Interval{}
			}
		} else {
			old := s.ivs
			s.small = [smallIvs]Interval{}
			copy(s.small[:], old)
			putBacking(old)
			s.ivs = s.small[:n]
		}
		s.inl = true
	default:
		if s.inl {
			s.small = [smallIvs]Interval{}
			s.inl = false
		}
	}
}

// adoptSorted replaces s's contents with the given sorted, coalesced slice,
// taking ownership of it (large results keep it as backing; small ones copy
// inline and release it to the pool).
func (s *IntervalSet) adoptSorted(ivs []Interval) {
	if s.inl || s.inline() {
		s.small = [smallIvs]Interval{}
		s.inl = false
		s.ivs = nil
	} else {
		putBacking(s.ivs)
		s.ivs = nil
	}
	s.ivs = ivs
	s.norm()
}

// growOne extends ivs by one (uninitialized) slot, moving to inline storage
// for the first interval and to pooled heap backing past smallIvs.
func (s *IntervalSet) growOne() {
	n := len(s.ivs)
	if s.ivs == nil {
		s.ivs = s.small[:1]
		return
	}
	if n < cap(s.ivs) {
		s.ivs = s.ivs[:n+1]
		return
	}
	nb := getBacking(2 * n)
	nb = nb[:n+1]
	copy(nb, s.ivs)
	if s.inline() {
		s.small = [smallIvs]Interval{}
		s.inl = false
	} else {
		putBacking(s.ivs)
	}
	s.ivs = nb
}

// Reset empties s in place, releasing any heap backing to the pool. The set
// ends in the canonical empty form, exactly like a fresh zero value.
func (s *IntervalSet) Reset() {
	s.ivs = s.ivs[:0]
	s.norm()
}

// CopyFrom replaces s's contents with a copy of o, reusing s's storage.
func (s *IntervalSet) CopyFrom(o *IntervalSet) {
	if s == o {
		return
	}
	n := len(o.ivs)
	switch {
	case n == 0:
		s.Reset()
		return
	case n <= smallIvs:
		if !s.inl {
			putBacking(s.ivs)
		}
		s.small = [smallIvs]Interval{}
		copy(s.small[:], o.ivs)
		s.ivs = s.small[:n]
		s.inl = true
	default:
		if s.inl || s.inline() {
			s.small = [smallIvs]Interval{}
			s.inl = false
			s.ivs = getBacking(n)
		} else if cap(s.ivs) < n {
			putBacking(s.ivs)
			s.ivs = getBacking(n)
		}
		s.ivs = s.ivs[:n]
		copy(s.ivs, o.ivs)
	}
}

// Clone returns an independent copy of s. The empty set is canonically
// represented with a nil slice (every mutator preserves this), so empty sets
// compare equal under reflect.DeepEqual no matter how they were produced.
func (s *IntervalSet) Clone() *IntervalSet {
	c := &IntervalSet{}
	c.CopyFrom(s)
	return c
}

// Empty reports whether the set contains no bytes.
func (s *IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// NumIntervals returns the number of maximal intervals in the set.
func (s *IntervalSet) NumIntervals() int { return len(s.ivs) }

// Bytes returns the total number of bytes covered.
func (s *IntervalSet) Bytes() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Intervals returns a copy of the underlying intervals in ascending order.
func (s *IntervalSet) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// search returns the index of the first interval with Hi > lo, i.e. the first
// interval that could overlap or follow an interval starting at lo.
func (s *IntervalSet) search(lo uint64) int {
	return sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi > lo })
}

// AddRange inserts [lo, hi) into the set, coalescing as needed.
func (s *IntervalSet) AddRange(lo, hi uint64) {
	if hi <= lo {
		return
	}
	// First interval that overlaps or touches [lo, hi) on the left: Hi >= lo.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].Hi >= lo })
	// Collect the run of intervals [i, j) that overlap or touch [lo, hi).
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo <= hi {
		j++
	}
	if i < j {
		if s.ivs[i].Lo < lo {
			lo = s.ivs[i].Lo
		}
		if s.ivs[j-1].Hi > hi {
			hi = s.ivs[j-1].Hi
		}
	}
	merged := Interval{lo, hi}
	switch {
	case i == j:
		// Pure insertion: shift the tail right by one.
		s.growOne()
		copy(s.ivs[i+1:], s.ivs[i:])
		s.ivs[i] = merged
	case j == i+1:
		// Replace in place.
		s.ivs[i] = merged
		return // length unchanged: already canonical
	default:
		// Replace i..j with one interval: shift the tail left.
		s.ivs[i] = merged
		s.ivs = append(s.ivs[:i+1], s.ivs[j:]...)
	}
	s.norm()
}

// Add inserts the interval iv.
func (s *IntervalSet) Add(iv Interval) { s.AddRange(iv.Lo, iv.Hi) }

// RemoveRange deletes [lo, hi) from the set, splitting intervals as needed.
// The removal is in place: at most one interval is split, so the set never
// allocates unless the split grows it past its capacity.
func (s *IntervalSet) RemoveRange(lo, hi uint64) {
	if hi <= lo || len(s.ivs) == 0 {
		return
	}
	i := s.search(lo)
	if i == len(s.ivs) {
		return
	}
	// [i, j) is the run of intervals overlapping [lo, hi).
	j := i
	for j < len(s.ivs) && s.ivs[j].Lo < hi {
		j++
	}
	if i == j {
		return
	}
	// Boundary fragments that survive the removal.
	var left, right Interval
	nl, nr := 0, 0
	if s.ivs[i].Lo < lo {
		left, nl = Interval{s.ivs[i].Lo, lo}, 1
	}
	if s.ivs[j-1].Hi > hi {
		right, nr = Interval{hi, s.ivs[j-1].Hi}, 1
	}
	switch rep := nl + nr; {
	case rep == j-i:
		if nl == 1 {
			s.ivs[i] = left
		}
		if nr == 1 {
			s.ivs[i+nl] = right
		}
		return // length unchanged: already canonical
	case rep < j-i:
		if nl == 1 {
			s.ivs[i] = left
		}
		if nr == 1 {
			s.ivs[i+nl] = right
		}
		n := copy(s.ivs[i+rep:], s.ivs[j:])
		s.ivs = s.ivs[:i+rep+n]
	default:
		// One interval splits in two: shift the tail right by one.
		s.growOne()
		copy(s.ivs[j+1:], s.ivs[j:])
		s.ivs[i] = left
		s.ivs[i+1] = right
	}
	s.norm()
}

// Contains reports whether addr is in the set.
func (s *IntervalSet) Contains(addr uint64) bool {
	i := s.search(addr)
	return i < len(s.ivs) && s.ivs[i].Contains(addr)
}

// ContainsRange reports whether every byte of [lo, hi) is in the set.
// An empty range is trivially contained.
func (s *IntervalSet) ContainsRange(lo, hi uint64) bool {
	if hi <= lo {
		return true
	}
	i := s.search(lo)
	return i < len(s.ivs) && s.ivs[i].Lo <= lo && hi <= s.ivs[i].Hi
}

// OverlapsRange reports whether any byte of [lo, hi) is in the set.
func (s *IntervalSet) OverlapsRange(lo, hi uint64) bool {
	if hi <= lo {
		return false
	}
	i := s.search(lo)
	return i < len(s.ivs) && s.ivs[i].Lo < hi
}

// mergeUnion appends the coalesced union of the sorted, coalesced runs a and
// b to dst. dst must not alias a or b.
func mergeUnion(dst, a, b []Interval) []Interval {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var iv Interval
		if j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			iv = a[i]
			i++
		} else {
			iv = b[j]
			j++
		}
		if n := len(dst); n > 0 && iv.Lo <= dst[n-1].Hi {
			if iv.Hi > dst[n-1].Hi {
				dst[n-1].Hi = iv.Hi
			}
			continue
		}
		dst = append(dst, iv)
	}
	return dst
}

// Union returns a new set holding s ∪ o.
func (s *IntervalSet) Union(o *IntervalSet) *IntervalSet {
	c := s.Clone()
	c.UnionInPlace(o)
	return c
}

// UnionInPlace replaces s with s ∪ o. Small additions take the binary-search
// insertion path; bulk unions run as one linear merge over pooled scratch,
// so repeated folds (wing aggregation, epoch summaries) do not go quadratic
// and do not allocate once the pool is warm.
func (s *IntervalSet) UnionInPlace(o *IntervalSet) {
	if s == o || len(o.ivs) == 0 {
		return
	}
	switch {
	case len(s.ivs) == 0:
		s.CopyFrom(o)
	case len(o.ivs) == 1:
		s.AddRange(o.ivs[0].Lo, o.ivs[0].Hi)
	default:
		dst := getBacking(len(s.ivs) + len(o.ivs))
		dst = mergeUnion(dst, s.ivs, o.ivs)
		s.adoptSorted(dst)
	}
}

// MergeInto folds s into dst (dst ∪= s) with the same linear-merge kernel as
// UnionInPlace.
func (s *IntervalSet) MergeInto(dst *IntervalSet) {
	dst.UnionInPlace(s)
}

// Subtract returns a new set holding s − o.
func (s *IntervalSet) Subtract(o *IntervalSet) *IntervalSet {
	c := s.Clone()
	c.SubtractInPlace(o)
	return c
}

// SubtractInPlace replaces s with s − o in one linear sweep over pooled
// scratch (compare Subtract/RemoveRange loops, which pay a search per
// removed interval).
func (s *IntervalSet) SubtractInPlace(o *IntervalSet) {
	if len(s.ivs) == 0 || len(o.ivs) == 0 {
		return
	}
	if s == o {
		s.Reset()
		return
	}
	if len(o.ivs) == 1 {
		s.RemoveRange(o.ivs[0].Lo, o.ivs[0].Hi)
		return
	}
	dst := getBacking(len(s.ivs) + len(o.ivs))
	j := 0
	for _, a := range s.ivs {
		lo := a.Lo
		for j < len(o.ivs) && o.ivs[j].Hi <= lo {
			j++
		}
		for k := j; k < len(o.ivs) && o.ivs[k].Lo < a.Hi; k++ {
			b := o.ivs[k]
			if b.Lo > lo {
				dst = append(dst, Interval{lo, b.Lo})
			}
			if b.Hi > lo {
				lo = b.Hi
			}
			if lo >= a.Hi {
				break
			}
		}
		if lo < a.Hi {
			dst = append(dst, Interval{lo, a.Hi})
		}
	}
	s.adoptSorted(dst)
}

// AssignDelta replaces s with (prev − kill) ∪ gen in one pass over the three
// sorted inputs: the SOS update SOS_{l+1} = (SOS_l − KILLₗ) ∪ GENₗ, where
// prev is generation-sized and kill and gen are epoch-sized. The runs of
// prev that end before the next kill or gen interval begins are copied as
// blocks; only the intervals a delta meets go through the element-wise
// subtract-and-merge. s must not alias an input; the inputs are left
// untouched.
func (s *IntervalSet) AssignDelta(prev, kill, gen *IntervalSet) {
	p, k, g := prev.ivs, kill.ivs, gen.ivs
	if len(k) == 0 && len(g) == 0 {
		s.CopyFrom(prev)
		return
	}
	// Subtracting splits at most len(k) intervals and the union adds at most
	// len(g), so dst never regrows.
	dst := getBacking(len(p) + len(k) + len(g))
	j, m := 0, 0 // cursors into k and g
	// put appends the next interval of the result stream, which arrives in
	// Lo order, coalescing it into the tail.
	put := func(iv Interval) {
		if n := len(dst); n > 0 && iv.Lo <= dst[n-1].Hi {
			if iv.Hi > dst[n-1].Hi {
				dst[n-1].Hi = iv.Hi
			}
			return
		}
		dst = append(dst, iv)
	}
	// survivor puts a piece of prev − kill, after the gen intervals that
	// start no later than it does.
	survivor := func(iv Interval) {
		for ; m < len(g) && g[m].Lo <= iv.Lo; m++ {
			put(g[m])
		}
		put(iv)
	}
	for i := 0; i < len(p); {
		a := p[i]
		for j < len(k) && k[j].Hi <= a.Lo {
			j++
		}
		next := ^uint64(0) // where the next delta interval begins
		if j < len(k) {
			next = k[j].Lo
		}
		if m < len(g) && g[m].Lo < next {
			next = g[m].Lo
		}
		if n := len(dst); a.Hi < next && (n == 0 || dst[n-1].Hi < a.Lo) {
			// Neither a pending delta nor a gen interval already in the tail
			// meets a or the intervals after it up to r.
			r := runEnd(p, i, next)
			dst = append(dst, p[i:r]...)
			i = r
			continue
		}
		lo := a.Lo
		for ; j < len(k) && k[j].Lo < a.Hi; j++ {
			b := k[j]
			if b.Lo > lo {
				survivor(Interval{lo, b.Lo})
			}
			if b.Hi > lo {
				lo = b.Hi
			}
			if lo >= a.Hi {
				break // b may reach into the next interval of prev: keep it
			}
		}
		if lo < a.Hi {
			survivor(Interval{lo, a.Hi})
		}
		i++
	}
	for ; m < len(g); m++ {
		put(g[m])
	}
	s.adoptSorted(dst)
}

// runEnd returns the first index r > i with p[r].Hi >= next (len(p) if none),
// given p[i].Hi < next. It gallops, so a run costs O(log run) however long p
// is: dense deltas do not pay a full binary search per interval.
func runEnd(p []Interval, i int, next uint64) int {
	step := 1
	for i+step < len(p) && p[i+step].Hi < next {
		i += step
		step <<= 1
	}
	n := min(step, len(p)-i) - 1 // candidates p[i+1 : i+1+n]; p[i+1+n] fails or is the end
	return i + 1 + sort.Search(n, func(x int) bool { return p[i+1+x].Hi >= next })
}

// Intersect returns a new set holding s ∩ o.
func (s *IntervalSet) Intersect(o *IntervalSet) *IntervalSet {
	c := &IntervalSet{}
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		lo := max64(a.Lo, b.Lo)
		hi := min64(a.Hi, b.Hi)
		if lo < hi {
			c.growOne()
			c.ivs[len(c.ivs)-1] = Interval{lo, hi}
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	c.norm()
	return c
}

// Intersects reports whether s ∩ o is nonempty.
func (s *IntervalSet) Intersects(o *IntervalSet) bool {
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		a, b := s.ivs[i], o.ivs[j]
		if a.Lo < b.Hi && b.Lo < a.Hi {
			return true
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// Equal reports whether s and o cover exactly the same bytes.
func (s *IntervalSet) Equal(o *IntervalSet) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// String renders the set as a list of intervals for debugging.
func (s *IntervalSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
