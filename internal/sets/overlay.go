package sets

// Overlay is a mutable view of the byte set (base − del) ∪ add over a base
// it only ever reads. It is the LSOS of the interval lifeguards (§5.2.1:
// LSOS_{l,t,k} = GEN ∪ (LSOS_{l,t,k−1} − KILL)): the base is the SOS
// generation the whole epoch shares, and a block's allocations and frees
// land in add and del, which stay proportional to the block however large
// the generation is. Nothing is copied to open a view and nothing is
// materialised to query one. A base that is large carries a Directory,
// and the view's probes into it go through that.
//
// Mutators keep add and del disjoint, so del never holds a byte the view
// contains. Any number of overlays may share one base concurrently as long
// as nobody writes the base while they live; one overlay is not safe for
// concurrent use. The zero value is not a view: Reset opens one.
type Overlay struct {
	base     *IntervalSet
	dir      *Directory // base's directory; nil when base has none
	add, del IntervalSet
}

// Reset empties the view and opens it over base, which dir indexes (nil:
// base has no directory): o then reads exactly as base does. add and del
// keep their storage (IntervalSet.Reset), so a view reopened every epoch by
// the summary that owns it stops allocating once it has reached its size.
func (o *Overlay) Reset(base *IntervalSet, dir *Directory) {
	if dir != nil && len(dir.start) == 0 {
		dir = nil // a small base: its probes take its own search
	}
	o.base, o.dir = base, dir
	o.add.Reset()
	o.del.Reset()
}

// baseContains is base.ContainsRange, through the directory if base has one.
func (o *Overlay) baseContains(lo, hi uint64) bool {
	if o.dir == nil {
		return o.base.ContainsRange(lo, hi)
	}
	return o.dir.ContainsRange(o.base, lo, hi)
}

// baseOverlaps is base.OverlapsRange, through the directory if base has one.
func (o *Overlay) baseOverlaps(lo, hi uint64) bool {
	if o.dir == nil {
		return o.base.OverlapsRange(lo, hi)
	}
	return o.dir.OverlapsRange(o.base, lo, hi)
}

// AddRange inserts [lo, hi) into the view.
func (o *Overlay) AddRange(lo, hi uint64) {
	o.add.AddRange(lo, hi)
	o.del.RemoveRange(lo, hi)
}

// RemoveRange deletes [lo, hi) from the view.
func (o *Overlay) RemoveRange(lo, hi uint64) {
	o.add.RemoveRange(lo, hi)
	o.del.AddRange(lo, hi)
}

// AddSet inserts every byte of s into the view.
func (o *Overlay) AddSet(s *IntervalSet) {
	o.add.UnionInPlace(s)
	o.del.SubtractInPlace(s)
}

// RemoveSet deletes every byte of s from the view.
func (o *Overlay) RemoveSet(s *IntervalSet) {
	o.add.SubtractInPlace(s)
	o.del.UnionInPlace(s)
}

// pristine reports whether the view is still exactly its base, the state
// access-only traffic leaves it in: queries then go straight to the base.
func (o *Overlay) pristine() bool { return len(o.add.ivs)|len(o.del.ivs) == 0 }

// ContainsRange reports whether every byte of [lo, hi) is in the view.
// An empty range is trivially contained.
func (o *Overlay) ContainsRange(lo, hi uint64) bool {
	if o.pristine() {
		if o.dir == nil {
			return o.base.ContainsRange(lo, hi)
		}
		return o.dir.ContainsRange(o.base, lo, hi)
	}
	// Walk [lo, hi) across add: what an add interval covers is in; each
	// stretch between two of them must lie in base and clear of del.
	a := o.add.ivs
	for i := o.add.search(lo); lo < hi; i++ {
		end := hi
		if i < len(a) && a[i].Lo < end {
			end = a[i].Lo
		}
		if lo < end && (!o.baseContains(lo, end) || o.del.OverlapsRange(lo, end)) {
			return false
		}
		if end == hi {
			return true
		}
		lo = a[i].Hi
	}
	return true
}

// OverlapsRange reports whether any byte of [lo, hi) is in the view.
func (o *Overlay) OverlapsRange(lo, hi uint64) bool {
	if o.pristine() {
		if o.dir == nil {
			return o.base.OverlapsRange(lo, hi)
		}
		return o.dir.OverlapsRange(o.base, lo, hi)
	}
	if o.add.OverlapsRange(lo, hi) {
		return true
	}
	// Otherwise a byte of base must show through del: probe base in each
	// stretch of [lo, hi) between two del intervals.
	d := o.del.ivs
	for i := o.del.search(lo); lo < hi; i++ {
		end := hi
		if i < len(d) && d[i].Lo < end {
			end = d[i].Lo
		}
		if o.baseOverlaps(lo, end) {
			return true
		}
		if end == hi {
			return false
		}
		lo = d[i].Hi
	}
	return false
}
