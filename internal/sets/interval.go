package sets

import (
	"fmt"
	"math/bits"
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
// and storage histories, so the in-memory form must be a pure function of
// the set's contents. Every mutator restores (via norm):
//
//   - empty        ⇔ ivs == nil, small zeroed, inl == false
//   - 1..smallIvs  ⇔ ivs == small[:n] (inline), unused tail of small zeroed,
//     inl == true
//   - > smallIvs   ⇔ ivs heap-backed, small zeroed, inl == false
//
// Two sets covering the same bytes are therefore DeepEqual no matter how
// they were produced. Code constructing ivs directly must end with norm().
//
// Owned storage. The one exception is a set Reset while heap-backed: its
// owner is about to refill it, so it keeps the backing (kept == true) and
// stays on it whatever its size, and every kernel then works inside it. A
// summary or scratch set refilled every epoch stops allocating once it has
// reached its size. A kept set is still a correct set, but it is no longer
// canonical, so values compared across runs (the final SOS, recorded
// histories) are built in sets that were never Reset.
type IntervalSet struct {
	ivs   []Interval // sorted by Lo; non-overlapping; non-adjacent (coalesced)
	small [smallIvs]Interval
	inl   bool // ivs is backed by small
	kept  bool // ivs is a heap backing kept by Reset
}

// NewIntervalSet returns a set containing the given intervals.
func NewIntervalSet(ivs ...Interval) *IntervalSet {
	s := &IntervalSet{}
	for _, iv := range ivs {
		s.AddRange(iv.Lo, iv.Hi)
	}
	return s
}

// minBacking is the smallest heap backing: the first step past inline
// storage.
const minBacking = 2 * smallIvs

// newBacking returns an empty heap backing with room for n intervals,
// rounded up to a power of two so a set that keeps growing reallocates
// O(log n) times.
func newBacking(n int) []Interval {
	return make([]Interval, 0, 1<<bits.Len(uint(max(n, minBacking)-1)))
}

// poisonAddr fills reclaimed backings in race builds: a reader still holding
// a slice of a set's old contents sees this implausible address instead of
// silently reading the set's next contents.
const poisonAddr = 0xdead_dead_dead_dead

// RaceEnabled reports whether the race detector is compiled in, for the
// lifeguards that poison the storage they are handed back the same way.
const RaceEnabled = raceEnabled

// reclaim empties s, leaving it in the canonical empty form, and returns
// its heap backing emptied for new contents, or nil when it had none. It is
// the one place interval storage is recycled: in race builds the backing is
// poisoned and not returned, so a stale reader meets poisonAddr rather than
// what the set holds next.
func (s *IntervalSet) reclaim() []Interval {
	b, heap := s.ivs, s.onHeap()
	*s = IntervalSet{}
	if !heap {
		return nil
	}
	if raceEnabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = Interval{Lo: poisonAddr, Hi: poisonAddr}
		}
		return nil
	}
	return b[:0]
}

// inline reports whether ivs currently points into small. It inspects the
// actual backing rather than trusting inl, because append can silently move
// a full inline backing to the heap mid-mutation.
func (s *IntervalSet) inline() bool {
	return len(s.ivs) > 0 && &s.ivs[0] == &s.small[0]
}

// onHeap reports whether ivs has a heap backing, whatever its length.
func (s *IntervalSet) onHeap() bool {
	return cap(s.ivs) > 0 && &s.ivs[:1][0] != &s.small[0]
}

// norm restores the canonical representation after a mutation; a kept set
// stays on its backing. It is cheap: one branch for large sets, at most a
// smallIvs-element copy/zero otherwise. A heap backing the set shrinks out
// of goes to the garbage collector.
func (s *IntervalSet) norm() {
	if s.kept {
		return
	}
	n := len(s.ivs)
	switch {
	case n == 0:
		*s = IntervalSet{}
	case n <= smallIvs:
		if s.onHeap() {
			old := s.ivs
			s.small = [smallIvs]Interval{}
			copy(s.small[:], old)
			s.ivs = s.small[:n]
		} else {
			clear(s.small[n:])
		}
		s.inl = true
	default:
		if s.inl {
			s.small = [smallIvs]Interval{}
			s.inl = false
		}
	}
}

// toHeap moves s onto the heap backing nb, which holds its contents, and
// clears the inline storage it leaves.
func (s *IntervalSet) toHeap(nb []Interval) {
	if !s.onHeap() {
		s.small = [smallIvs]Interval{}
		s.inl = false
	}
	s.ivs = nb
}

// growOne extends ivs by one (uninitialized) slot, moving to inline storage
// for the first interval and to a heap backing past smallIvs.
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
	nb := newBacking(2 * n)[:n+1]
	copy(nb, s.ivs)
	s.toHeap(nb)
}

// Reset empties s for new contents. A heap backing stays with the set,
// which keeps working inside it from now on (see "Owned storage" above); in
// race builds the backing is poisoned and dropped instead. An inline or
// empty set ends in the canonical empty form, exactly like a fresh zero
// value.
func (s *IntervalSet) Reset() {
	if b := s.reclaim(); b != nil {
		s.ivs, s.kept = b, true
	}
}

// assign replaces s's contents with the sorted, coalesced runs src, which
// must not share s's storage, reusing s's backing when it has room.
func (s *IntervalSet) assign(src []Interval) {
	n := len(src)
	if s.kept || n > smallIvs {
		b := s.ivs
		if !s.onHeap() || cap(b) < n {
			b = newBacking(n)
		}
		s.toHeap(append(b[:0], src...))
		return
	}
	*s = IntervalSet{}
	if n > 0 {
		copy(s.small[:], src)
		s.ivs, s.inl = s.small[:n], true
	}
}

// CopyFrom replaces s's contents with a copy of o, reusing s's storage.
func (s *IntervalSet) CopyFrom(o *IntervalSet) {
	if s != o {
		s.assign(o.ivs)
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
// b to dst. dst may share a's backing when a begins len(b) or more slots
// after dst's first write: the write cursor stays on or behind the next
// unread interval of a, since at most len(b) of the intervals written before
// it come from b.
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

// subtractRuns appends the runs of a − b to dst, for sorted, coalesced a
// and b. dst may share a's backing under mergeUnion's rule: every b
// interval opens at most one piece, and every a interval closes at most one
// more.
func subtractRuns(dst, a, b []Interval) []Interval {
	j := 0
	for _, x := range a {
		lo := x.Lo
		for j < len(b) && b[j].Hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].Lo < x.Hi; k++ {
			y := b[k]
			if y.Lo > lo {
				dst = append(dst, Interval{lo, y.Lo})
			}
			if y.Hi > lo {
				lo = y.Hi
			}
			if lo >= x.Hi {
				break
			}
		}
		if lo < x.Hi {
			dst = append(dst, Interval{lo, x.Hi})
		}
	}
	return dst
}

// combine replaces s with s ∪ b (union) or s − b, for sorted, coalesced b
// whose result has at most len(s)+len(b) intervals. With room in s's
// backing, s's runs move to its tail and the kernel merges them forward
// into the same backing (the sharing mergeUnion and subtractRuns allow). A
// small set without room merges through the stack, and anything else into
// a new heap backing that s then owns.
func (s *IntervalSet) combine(b []Interval, union bool) {
	n, m := len(s.ivs), len(b)
	switch need := n + m; {
	case need <= cap(s.ivs):
		buf := s.ivs[:need]
		copy(buf[m:], buf[:n])
		s.ivs = runs(buf[:0], buf[m:], b, union)
	case need <= 2*smallIvs:
		var tmp [2 * smallIvs]Interval
		s.assign(runs(tmp[:0], s.ivs, b, union))
		return
	default:
		s.toHeap(runs(newBacking(need), s.ivs, b, union))
	}
	s.norm()
}

// runs appends a ∪ b or a − b to dst.
func runs(dst, a, b []Interval, union bool) []Interval {
	if union {
		return mergeUnion(dst, a, b)
	}
	return subtractRuns(dst, a, b)
}

// UnionInPlace replaces s with s ∪ o. Small additions take the binary-search
// insertion path; bulk unions run as one linear merge inside s's own
// backing, so repeated folds (wing aggregation, epoch summaries) do not go
// quadratic and do not allocate once the set has reached its size.
func (s *IntervalSet) UnionInPlace(o *IntervalSet) {
	if s == o || len(o.ivs) == 0 {
		return // s ∪ s = s
	}
	switch {
	case len(s.ivs) == 0:
		s.CopyFrom(o)
	case len(o.ivs) == 1:
		s.AddRange(o.ivs[0].Lo, o.ivs[0].Hi)
	default:
		s.combine(o.ivs, true)
	}
}

// MergeInto folds s into dst (dst ∪= s) with the same linear-merge kernel as
// UnionInPlace.
func (s *IntervalSet) MergeInto(dst *IntervalSet) {
	dst.UnionInPlace(s)
}

// SubtractInPlace replaces s with s − o in one linear sweep inside s's own
// backing (a RemoveRange loop pays a search per removed interval). Only the
// intervals of o within s's span take part.
func (s *IntervalSet) SubtractInPlace(o *IntervalSet) {
	n := len(s.ivs)
	if n == 0 || len(o.ivs) == 0 {
		return
	}
	if s == o {
		s.ivs = s.ivs[:0] // s − s = ∅
		s.norm()
		return
	}
	lo := o.search(s.ivs[0].Lo)
	hi := lo + sort.Search(len(o.ivs)-lo, func(i int) bool { return o.ivs[lo+i].Lo >= s.ivs[n-1].Hi })
	switch b := o.ivs[lo:hi]; len(b) {
	case 0:
	case 1:
		s.RemoveRange(b[0].Lo, b[0].Hi)
	default:
		s.combine(b, false)
	}
}

// AssignDelta replaces s with (prev − kill) ∪ gen in one pass over the three
// sorted inputs: the SOS update SOS_{l+1} = (SOS_l − KILLₗ) ∪ GENₗ, where
// prev is generation-sized and kill and gen are epoch-sized. The runs of
// prev that end before the next kill or gen interval begins are copied as
// blocks; only the intervals a delta meets go through the element-wise
// subtract-and-merge. The result is written into s's own backing, so a
// dead generation's storage carries the next one. s must not alias an
// input; the inputs are left untouched.
func (s *IntervalSet) AssignDelta(prev, kill, gen *IntervalSet) {
	p, k, g := prev.ivs, kill.ivs, gen.ivs
	if len(k) == 0 && len(g) == 0 {
		s.CopyFrom(prev)
		return
	}
	// Subtracting splits at most len(k) intervals and the union adds at most
	// len(g), so dst never regrows.
	switch need := len(p) + len(k) + len(g); {
	case need <= cap(s.ivs) && s.onHeap():
		s.ivs = delta(s.ivs[:0], p, k, g)
	case need <= 2*smallIvs:
		var tmp [2 * smallIvs]Interval
		s.assign(delta(tmp[:0], p, k, g))
		return
	default:
		s.toHeap(delta(newBacking(need), p, k, g))
	}
	s.norm()
}

// delta appends (p − k) ∪ g to dst, which has room for all of it.
func delta(dst, p, k, g []Interval) []Interval {
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
	return dst
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
