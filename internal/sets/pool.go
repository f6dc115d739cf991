package sets

// Memory pooling for the interval kernels (DESIGN.md §12). The butterfly
// drivers run a steady-state epoch loop: every tick builds and discards the
// same transient sets (LSOS chains, epoch GEN/KILL spans, wing folds). Pools
// let that loop run allocation-free once warm:
//
//   - GetSet/PutSet recycle whole *IntervalSet values. PutSet restores the
//     canonical empty form, so a recycled set is indistinguishable from a
//     fresh one (the reflect.DeepEqual guarantees of interval.go survive
//     pooling).
//
//   - getBacking/putBacking recycle the heap []Interval arrays behind large
//     sets and the scratch slices of the linear merge/subtract kernels.
//     sync.Pool cannot hold a bare slice without boxing it on every Put (an
//     allocation, exactly what the pool exists to avoid), so slices travel
//     inside reusable *ivSlice boxes: boxes carrying a slice sit in the
//     backing pool of the slice's size class, empty boxes in boxPool. Boxes
//     are allocated only when both are cold.
//
//     Backings are pooled by power-of-two size class: class c holds
//     capacities in [2^c, 2^(c+1)), a request draws from the class of its
//     rounded-up size and a miss allocates that rounded-up size. Whatever a
//     request pops therefore fits, and an 8-interval overlay set and a
//     generation-sized SOS never trade backings — one mixed pool handed
//     32 Ki-interval backings to 8-interval requests and dropped every
//     too-small pop on the floor.
//
// Ownership discipline: a slice handed to putBacking must have no other
// referent — the caller transfers ownership. Inline (small-array) backings
// are never pooled; putBacking filters them by capacity, since an inline
// backing's capacity is always exactly smallIvs.

import (
	"math/bits"
	"sync"
)

// ivSlice is the reusable box that carries a pooled []Interval.
type ivSlice struct{ s []Interval }

var (
	boxPool      sync.Pool                    // empty *ivSlice boxes
	backingPools [bits.UintSize + 1]sync.Pool // by size class: *ivSlice boxes carrying a released slice
	setPool      sync.Pool                    // empty *IntervalSet values
)

// minBacking is the smallest heap backing: the first step past inline
// storage.
const minBacking = 2 * smallIvs

// getBacking returns a zero-length []Interval with capacity at least min,
// reusing a pooled backing of min's size class when there is one.
func getBacking(min int) []Interval {
	if min < minBacking {
		min = minBacking
	}
	c := bits.Len(uint(min - 1)) // ⌈log₂ min⌉: every backing in class c holds min
	if b, _ := backingPools[c].Get().(*ivSlice); b != nil {
		s := b.s
		b.s = nil
		boxPool.Put(b)
		return s
	}
	return make([]Interval, 0, 1<<c)
}

// poisonAddr fills released backings in race builds: a live aliased reader
// of a recycled slice sees this implausible address instead of silently
// stale intervals.
const poisonAddr = 0xdead_dead_dead_dead

// RaceEnabled reports whether the race detector is compiled in, for pools
// outside this package that poison released storage the same way.
const RaceEnabled = raceEnabled

// putBacking releases a heap backing to the pool of its size class. Nil
// slices and inline backings (capacity smallIvs, below minBacking) are
// ignored.
func putBacking(s []Interval) {
	if cap(s) < minBacking {
		return
	}
	if raceEnabled {
		p := s[:cap(s)]
		for i := range p {
			p[i] = Interval{Lo: poisonAddr, Hi: poisonAddr}
		}
	}
	b, _ := boxPool.Get().(*ivSlice)
	if b == nil {
		b = new(ivSlice)
	}
	b.s = s[:0]
	backingPools[bits.Len(uint(cap(s)))-1].Put(b) // ⌊log₂ cap⌋
}

// GetSet returns an empty IntervalSet from the pool, in canonical form. It
// is the allocation-free counterpart of NewIntervalSet() for transient sets;
// pair it with PutSet when the set dies.
func GetSet() *IntervalSet {
	if s, _ := setPool.Get().(*IntervalSet); s != nil {
		return s
	}
	return &IntervalSet{}
}

// PutSet resets s to the canonical empty form (releasing any heap backing to
// the pool) and recycles it. The caller must be the sole referent; passing
// nil is a no-op.
func PutSet(s *IntervalSet) {
	if s == nil {
		return
	}
	s.Reset()
	setPool.Put(s)
}
