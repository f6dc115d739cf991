package sets

import "math"

// many is the owner of a RowUnion run that more than one thread covers.
const many = -1

// RowUnion is the union of one epoch row's interval sets, each added under
// the thread that contributed it, with every byte tagged by who covers it:
// sorted, disjoint runs, each owned by the one thread whose sets cover all
// of its bytes, or by many where sets of two or more threads do. Adjacent
// runs that touch have different owners. It answers the wing query of a
// body on thread t, "does [lo, hi) meet a set of a thread other than t?",
// exactly and for any number of threads: is there a run over [lo, hi)
// whose owner is not t. (A bitmask of contributing threads would answer it
// too, but only for 64 threads.)
//
// Build merges the sources once, O(runs · log sources) as a rule, and
// indexes the runs with a Directory, so a probe costs what a probe into a
// frozen SOS generation does; a probe beyond the other threads' first and
// last runs costs no search at all. The union is frozen between builds:
// any number of goroutines may probe it, none while it is rebuilt. The
// zero value is an empty union; every Build reuses its storage.
type RowUnion struct {
	ivs   []Interval // the runs, sorted and disjoint
	owner []int32    // owner[i] is run i's owning thread, or many
	dir   Directory

	// Where the other threads' runs begin and end, seen from a thread:
	// from the thread that owns the first run they begin at first[1],
	// from any other at first[0]; likewise last and the last run. A probe
	// outside them needs no search.
	firstOwn, lastOwn int32
	first, last       [2]uint64

	// Build's working storage.
	src  []rowSource
	heap []rowCursor
	tail []Interval // the runs an overlapping interval rewrites, and their owners
	town []int32
}

// rowSource is one set added to the union: its runs and its thread.
type rowSource struct {
	v     []Interval
	owner int32
}

// rowCursor is the next interval of one source, v[i], which begins at at.
type rowCursor struct {
	at  uint64
	src int32
	i   int32
}

// Add adds set s of thread t (t >= 0) to the next Build. s is read by that
// Build, so it must not change until Build returns; u keeps no reference to
// it afterwards.
func (u *RowUnion) Add(t int, s *IntervalSet) {
	if len(s.ivs) > 0 {
		u.src = append(u.src, rowSource{v: s.ivs, owner: int32(t)})
	}
}

// Build makes u the union of the sets added since the last Build,
// replacing what it held, and returns the number of runs written.
func (u *RowUnion) Build() int {
	u.ivs, u.owner = u.ivs[:0], u.owner[:0]
	u.merge()
	clear(u.src) // drop the sources' backings
	u.src = u.src[:0]
	u.bound()
	// Every access of three rows of bodies probes the union, which is built
	// once: even a small one pays for its directory (a set waits for
	// dirMinIntervals).
	u.dir.indexRuns(u.ivs, 1)
	return len(u.ivs)
}

// bound sets first, last and their owners from the runs.
func (u *RowUnion) bound() {
	v, own := u.ivs, u.owner
	u.firstOwn, u.lastOwn = many, many
	u.first, u.last = [2]uint64{math.MaxUint64, math.MaxUint64}, [2]uint64{}
	n := len(v)
	if n == 0 {
		return
	}
	u.firstOwn, u.lastOwn = own[0], own[n-1]
	u.first[0], u.last[0] = v[0].Lo, v[n-1].Hi
	for i := range v {
		if own[i] != own[0] {
			u.first[1] = v[i].Lo
			break
		}
	}
	for i := n - 1; i >= 0; i-- {
		if own[i] != own[n-1] {
			u.last[1] = v[i].Hi
			break
		}
	}
}

// merge takes the sources' intervals in order of Lo through a heap of
// per-source cursors and lays each onto the runs built so far. Most land
// past the last run or touch it, and cost an append; one that overlaps
// rewrites only the runs that end past its Lo, at most one per source.
func (u *RowUnion) merge() {
	h := u.heap[:0]
	for k, s := range u.src {
		h = append(h, rowCursor{at: s.v[0].Lo, src: int32(k)})
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		siftDown(h, k)
	}
	for len(h) > 0 {
		c := &h[0]
		s := &u.src[c.src]
		iv := s.v[c.i]
		if c.i++; int(c.i) < len(s.v) {
			c.at = s.v[c.i].Lo
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
		if n := len(u.ivs); n == 0 || iv.Lo >= u.ivs[n-1].Hi {
			u.put(iv, s.owner)
		} else {
			u.overlay(iv, s.owner)
		}
	}
	u.heap = h
}

// overlay lays iv, of owner own, onto runs that end past iv.Lo, which no
// run begins after: bytes of iv no run covers become own's, covered bytes
// stay with their owner if it is own and become many's otherwise.
func (u *RowUnion) overlay(iv Interval, own int32) {
	m := len(u.ivs) - 1
	for m > 0 && u.ivs[m-1].Hi > iv.Lo {
		m--
	}
	t, to := u.tail[:0], u.town[:0]
	for i, r := range u.ivs[m:] {
		t, to = append(t, r), append(to, u.owner[m+i])
	}
	u.ivs, u.owner = u.ivs[:m], u.owner[:m]
	at := iv.Lo // the bytes of iv below at are laid
	for i, r := range t {
		o := to[i]
		if r.Lo < at { // run m begins before iv
			u.put(Interval{r.Lo, at}, o)
			r.Lo = at
		}
		if r.Lo > at && at < iv.Hi { // a gap of iv's
			u.put(Interval{at, min(r.Lo, iv.Hi)}, own)
		}
		if r.Lo < iv.Hi { // the part of r that iv covers
			mid := min(r.Hi, iv.Hi)
			if o != own {
				u.put(Interval{r.Lo, mid}, many)
			} else {
				u.put(Interval{r.Lo, mid}, o)
			}
			r.Lo = mid
		}
		if r.Lo < r.Hi { // past iv
			u.put(r, o)
		}
		at = max(at, r.Hi)
	}
	if at < iv.Hi {
		u.put(Interval{at, iv.Hi}, own)
	}
	u.tail, u.town = t, to
}

// put appends run iv of owner own, merging it into the last run when the
// two touch and share their owner.
func (u *RowUnion) put(iv Interval, own int32) {
	if n := len(u.ivs); n > 0 && u.ivs[n-1].Hi == iv.Lo && u.owner[n-1] == own {
		u.ivs[n-1].Hi = iv.Hi
		return
	}
	u.ivs = append(u.ivs, iv)
	u.owner = append(u.owner, own)
}

// siftDown restores the min-heap order of h below index k.
func siftDown(h []rowCursor, k int) {
	for {
		m := k
		if l := 2*k + 1; l < len(h) && h[l].at < h[m].at {
			m = l
		}
		if r := 2*k + 2; r < len(h) && h[r].at < h[m].at {
			m = r
		}
		if m == k {
			return
		}
		h[k], h[m] = h[m], h[k]
		k = m
	}
}

// Empty reports whether the union covers no byte.
func (u *RowUnion) Empty() bool { return len(u.ivs) == 0 }

// OverlapsOther reports whether [lo, hi) meets a set that a thread other
// than t added.
func (u *RowUnion) OverlapsOther(t int, lo, hi uint64) bool {
	tt := int32(t)
	if hi <= lo || hi <= u.first[b2i(tt == u.firstOwn)] || lo >= u.last[b2i(tt == u.lastOwn)] {
		return false
	}
	// The check above leaves a union with runs, so with a directory, and an
	// lo before the end of its last run, so in one of its buckets: the
	// directory's search without its range checks.
	v, d, i := u.ivs, &u.dir, 0
	if lo > d.lo {
		b := (lo - d.lo) >> d.shift
		j, k := d.start[b], d.start[b+1]
		i = int(j) + searchHi(v[j:k], lo, true)
	}
	// Two touching runs differ in owner, so past the first run the scan
	// stops at the second unless a gap separates them.
	for ; i < len(v) && v[i].Lo < hi; i++ {
		if u.owner[i] != tt {
			return true
		}
	}
	return false
}
