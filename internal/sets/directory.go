package sets

import (
	"math"
	"math/bits"
)

// dirMinIntervals is the smallest set a Directory indexes. Below it a binary
// search is a handful of loads that stay in cache, and a directory would
// only add its own.
const dirMinIntervals = 64

// Directory is an address directory over a frozen IntervalSet: the span from
// the set's lowest byte to its highest is cut into buckets of one
// power-of-two width, about as many as the set has intervals (at most two
// per interval), and entry b holds the index of the first interval whose Hi
// exceeds the lowest address of bucket b. A probe is then one shift, two
// directory loads and a search over only the intervals that meet the
// probe's bucket, instead of a binary search over the whole set: a constant
// number of dependent loads however large the set. A skewed set, many of
// whose intervals fall in one bucket, costs at most the full search plus
// those two loads.
//
// A directory describes the contents the set had when Build ran, so it is
// for sets that stay frozen while it is probed: an SOS generation, the runs
// of a RowUnion. Build again after any change. Sets below dirMinIntervals
// get no directory, and probes through it take the set's own search, as if
// it were not there. Its entries are a pure function of the set's
// contents; only its storage, which Build and CopyFrom reuse, depends on
// history (so, as for a kept IntervalSet, values compared across runs are
// built in fresh directories). The zero value indexes nothing.
type Directory struct {
	start []uint32 // nb+1 entries: start[b] as above, start[nb] = len(ivs); empty: no directory
	lo    uint64   // the lowest byte of the set, where bucket 0 begins (0 when empty)
	shift uint     // log2 of the bucket width (0 when empty)
}

// Build indexes s, reusing d's storage. It allocates only when s's backing
// has grown past every set d indexed before: the storage is sized to s's
// backing, at most 8 B per interval slot.
func (d *Directory) Build(s *IntervalSet) {
	// A small set over an empty directory, the common case, costs no call.
	if len(s.ivs) >= dirMinIntervals || len(d.start) > 0 {
		d.indexRuns(s.ivs, dirMinIntervals)
	}
}

// indexRuns indexes the sorted, disjoint runs v when there are at least min
// of them (Build's min is dirMinIntervals; tests index smaller sets):
// adjacent runs may touch, as a RowUnion's do. Storage is sized to v's
// backing.
func (d *Directory) indexRuns(v []Interval, min int) {
	n := len(v)
	d.start, d.lo, d.shift = d.start[:0], 0, 0
	if n == 0 || n < min || uint64(n) > math.MaxUint32 {
		return
	}
	lo := v[0].Lo
	// span−1 is the offset of the highest byte; the smallest shift that fits
	// it in 2n buckets leaves more than n of them.
	last := v[n-1].Hi - 1 - lo
	shift := uint(bits.Len64(last / uint64(2*n)))
	nb := int(last>>shift) + 1
	if cap(d.start) < nb+1 {
		d.start = make([]uint32, 0, 2*cap(v)+1)
	}
	// Entry b counts the intervals whose Hi is at most bucket b's lowest
	// address: those whose last byte lies in a bucket before b. Count the
	// intervals by the bucket after their last byte's, then sum the counts
	// up, with no branch that depends on the data.
	start := d.start[:nb+1]
	clear(start)
	for _, iv := range v {
		start[(iv.Hi-1-lo)>>shift+1]++
	}
	var sum uint32
	for b, c := range start {
		sum += c
		start[b] = sum
	}
	d.start, d.lo, d.shift = start, lo, shift
}

// CopyFrom makes d a copy of o, reusing d's storage: the directory of a set
// that is a copy of the one o indexes, at the price of a copy rather than a
// build.
func (d *Directory) CopyFrom(o *Directory) {
	if d == o {
		return
	}
	if cap(d.start) < len(o.start) {
		d.start = make([]uint32, 0, cap(o.start))
	}
	d.start, d.lo, d.shift = append(d.start[:0], o.start...), o.lo, o.shift
}

// search returns the index of the first interval of v, the set d indexes,
// with Hi > x: IntervalSet.search, for a directory that is not empty.
func (d *Directory) search(v []Interval, x uint64) int {
	if raceEnabled && int(d.start[len(d.start)-1]) != len(v) {
		panic("sets: a directory probed with a set it does not index")
	}
	if x < d.lo {
		return 0 // every interval lies above x
	}
	b := (x - d.lo) >> d.shift
	if b >= uint64(len(d.start)-1) {
		return len(v) // x is at or past the end of the set
	}
	// The answer is at least start[b], whose Hi is the first above the
	// bucket's lowest address, and at most start[b+1].
	i, j := d.start[b], d.start[b+1]
	return int(i) + searchHi(v[i:j], x, true)
}

// ContainsRange reports whether every byte of [lo, hi) is in s, which d
// indexes: s.ContainsRange through the directory, or s's own search when
// there is none.
func (d *Directory) ContainsRange(s *IntervalSet, lo, hi uint64) bool {
	if hi <= lo {
		return true
	}
	v, i := s.ivs, 0
	if len(d.start) == 0 {
		i = searchHi(v, lo, true)
	} else {
		i = d.search(v, lo)
	}
	return i < len(v) && v[i].Lo <= lo && hi <= v[i].Hi
}

// OverlapsRange reports whether any byte of [lo, hi) is in s, which d
// indexes: s.OverlapsRange through the directory, or s's own search when
// there is none.
func (d *Directory) OverlapsRange(s *IntervalSet, lo, hi uint64) bool {
	if hi <= lo {
		return false
	}
	v, i := s.ivs, 0
	if len(d.start) == 0 {
		i = searchHi(v, lo, true)
	} else {
		i = d.search(v, lo)
	}
	return i < len(v) && v[i].Lo < hi
}
