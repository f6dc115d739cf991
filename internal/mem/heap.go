// Package mem implements the simulated heap allocator that assigns concrete
// addresses to the workloads' allocations. AddrCheck monitors heap state, so
// the machine needs a real allocator: first-fit over a free list, with
// deterministic address assignment for reproducible traces.
package mem

import (
	"fmt"

	"butterfly/internal/sets"
)

// Heap is a first-fit allocator over [Base, Base+Size) with per-thread
// arenas: like production allocators (glibc arenas, tcmalloc thread caches),
// each thread allocates from its own region, so freed blocks are reused by
// the same thread rather than migrating across threads. Migration matters to
// butterfly AddrCheck: a block freed by one thread and immediately
// reallocated by another inside one uncertainty window is a metadata race by
// construction and floods the analysis with false positives no real
// allocator would cause. The zero value is unusable; construct with NewHeap
// or NewArenaHeap.
type Heap struct {
	base, limit uint64
	free        []*sets.IntervalSet // one free list per arena
	allocs      map[uint64]uint64   // base address -> size
	// peak tracks the maximum concurrently allocated bytes.
	inUse, peak uint64
}

// NewHeap returns a single-arena heap managing [base, base+size).
func NewHeap(base, size uint64) *Heap { return NewArenaHeap(base, size, 1) }

// NewArenaHeap returns a heap managing [base, base+size) split into arenas
// equal regions, one per thread.
func NewArenaHeap(base, size uint64, arenas int) *Heap {
	if arenas < 1 {
		arenas = 1
	}
	h := &Heap{
		base:   base,
		limit:  base + size,
		free:   make([]*sets.IntervalSet, arenas),
		allocs: map[uint64]uint64{},
	}
	per := size / uint64(arenas)
	for a := range h.free {
		lo := base + uint64(a)*per
		hi := lo + per
		if a == arenas-1 {
			hi = base + size
		}
		h.free[a] = sets.NewIntervalSet(sets.Interval{Lo: lo, Hi: hi})
	}
	return h
}

// Alloc reserves size bytes from arena 0.
func (h *Heap) Alloc(size uint64) (uint64, error) { return h.AllocFrom(0, size) }

// AllocFrom reserves size bytes from the given thread's arena (first fit),
// falling back to other arenas if it is exhausted.
func (h *Heap) AllocFrom(arena int, size uint64) (uint64, error) {
	if size == 0 {
		return 0, fmt.Errorf("mem: zero-size allocation")
	}
	if arena < 0 || arena >= len(h.free) {
		arena = 0
	}
	for off := 0; off < len(h.free); off++ {
		fl := h.free[(arena+off)%len(h.free)]
		for _, iv := range fl.Intervals() {
			if iv.Len() >= size {
				fl.RemoveRange(iv.Lo, iv.Lo+size)
				h.allocs[iv.Lo] = size
				h.inUse += size
				if h.inUse > h.peak {
					h.peak = h.inUse
				}
				return iv.Lo, nil
			}
		}
	}
	return 0, fmt.Errorf("mem: out of memory allocating %d bytes (in use %d of %d)", size, h.inUse, h.limit-h.base)
}

// Free releases the allocation at base, returning its size. The bytes
// return to the arena that owns the address range.
func (h *Heap) Free(base uint64) (uint64, error) {
	size, ok := h.allocs[base]
	if !ok {
		return 0, fmt.Errorf("mem: free of unallocated address %#x", base)
	}
	delete(h.allocs, base)
	h.free[h.arenaOf(base)].AddRange(base, base+size)
	h.inUse -= size
	return size, nil
}

// arenaOf returns the arena owning an address.
func (h *Heap) arenaOf(addr uint64) int {
	per := (h.limit - h.base) / uint64(len(h.free))
	a := int((addr - h.base) / per)
	if a >= len(h.free) {
		a = len(h.free) - 1
	}
	return a
}

// SizeOf returns the size of the live allocation at base (0 if none).
func (h *Heap) SizeOf(base uint64) uint64 { return h.allocs[base] }

// InUse returns the currently allocated byte count.
func (h *Heap) InUse() uint64 { return h.inUse }

// Peak returns the maximum concurrently allocated byte count.
func (h *Heap) Peak() uint64 { return h.peak }

// Live returns the number of live allocations.
func (h *Heap) Live() int { return len(h.allocs) }
