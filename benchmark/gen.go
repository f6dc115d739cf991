package main

import (
	"hash/fnv"
	"math/rand"

	"butterfly/internal/epoch"
	"butterfly/internal/trace"
)

// nThreads is the application thread count of every synthetic stream.
const nThreads = 4

// A row is one epoch of a stream: the events of each application thread.
type row [][]trace.Event

func (r row) events() int {
	n := 0
	for _, evs := range r {
		n += len(evs)
	}
	return n
}

// traffic is one session's synthetic input: a prologue that builds the
// lifeguard's state, and one period that is replayed for as long as the run
// lasts. A period is state-neutral — every free is re-allocated and every
// taint cleared by its end — and ends in two epochs of Nops, so the wings of
// a period's first epoch are the same whatever came before it. The reports
// of the k-th replay are therefore those of the first, k periods later, and
// a run of any length is checked against one in-process pass over the
// prologue and a single period.
type traffic struct {
	lifeguard string
	prologue  []row
	period    []row
}

// quietEpochs is the number of Nop epochs that close a prologue or a period:
// the window is three epochs wide, so two separate what follows from it.
const quietEpochs = 2

func nopRow(h int) row {
	r := make(row, nThreads)
	for t := range r {
		r[t] = make([]trace.Event, h)
	}
	return r
}

// rowEvents sums the events of rows.
func rowEvents(rows []row) int {
	n := 0
	for _, r := range rows {
		n += r.events()
	}
	return n
}

// newRNG derives a generator from the benchmark seed, the traffic's name
// and the session index, so sessions of one run differ and a seed fixes all.
func newRNG(seed int64, name string, session int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()>>1) + int64(session)*7919))
}

// rowBuilder accumulates events into h-sized blocks, one thread at a time.
type rowBuilder struct {
	h    int
	rows []row
}

// block returns thread t's block of epoch l, growing the stream as needed.
func (b *rowBuilder) block(l, t int) *[]trace.Event {
	for len(b.rows) <= l {
		b.rows = append(b.rows, make(row, nThreads))
	}
	return &b.rows[l][t]
}

// finish fills every short block with Nops and appends the quiet epochs.
func (b *rowBuilder) finish() []row {
	for _, r := range b.rows {
		for t := range r {
			for len(r[t]) < b.h {
				r[t] = append(r[t], trace.Event{Kind: trace.Nop})
			}
		}
	}
	for i := 0; i < quietEpochs; i++ {
		b.rows = append(b.rows, nopRow(b.h))
	}
	return b.rows
}

// spread deals events to the threads round-robin, h per block.
func (b *rowBuilder) spread(evs []trace.Event) {
	next := make([]int, nThreads) // events dealt to each thread so far
	for i, e := range evs {
		t := i % nThreads
		blk := b.block(next[t]/b.h, t)
		*blk = append(*blk, e)
		next[t]++
	}
}

// Heap layout of the slot workloads: fixed-size slots separated by gaps of
// the same size, so the allocated set is one interval per slot and an
// access past a slot's end lands in unallocated memory.
const heapBase = 1 << 28

type slotHeap struct {
	slots int
	size  uint64 // slot size = gap size
}

func (hp slotHeap) addr(slot int) uint64 { return heapBase + uint64(slot)*2*hp.size }

// allocPrologue allocates every slot (and, for definedness checking, writes
// it), dealt over the threads.
func (hp slotHeap) allocPrologue(h int, write bool) []row {
	var evs []trace.Event
	for s := 0; s < hp.slots; s++ {
		evs = append(evs, trace.Event{Kind: trace.Alloc, Addr: hp.addr(s), Size: hp.size})
	}
	b := &rowBuilder{h: h}
	b.spread(evs)
	rows := b.finish()
	if !write {
		return rows
	}
	// Writes go in their own epochs, after the quiet ones, by the thread
	// that allocated the slot: no write is concurrent with an allocation.
	evs = evs[:0]
	for s := 0; s < hp.slots; s++ {
		evs = append(evs, trace.Event{Kind: trace.Write, Addr: hp.addr(s), Size: hp.size})
	}
	w := &rowBuilder{h: h}
	w.spread(evs)
	return append(rows, w.finish()...)
}

// genAccess is the clean/flood traffic: random 50/50 reads and writes of 8
// bytes over a pre-allocated heap of 4096 64-byte slots. gapShare of the
// accesses land in the gap behind a slot, each of which AddrCheck reports.
func genAccess(rng *rand.Rand, h, epochs int, gapShare float64) *traffic {
	hp := slotHeap{slots: 4096, size: 64}
	b := &rowBuilder{h: h}
	for l := 0; l < epochs-quietEpochs; l++ {
		for t := 0; t < nThreads; t++ {
			blk := b.block(l, t)
			for i := 0; i < h; i++ {
				kind := trace.Read
				if rng.Intn(2) == 0 {
					kind = trace.Write
				}
				addr := hp.addr(rng.Intn(hp.slots)) + uint64(rng.Intn(8))*8
				if rng.Float64() < gapShare {
					addr += hp.size
				}
				*blk = append(*blk, trace.Event{Kind: kind, Addr: addr, Size: 8})
			}
		}
	}
	return &traffic{lifeguard: "addrcheck",
		prologue: hp.allocPrologue(h, false), period: b.finish()}
}

// genChurn is the fragmented-heap traffic: each thread owns a quarter of the
// slots and continuously frees and, a while later, re-allocates and rewrites
// them, while every thread reads slots of all four. Readers keep off a slot
// from its free until three epochs after its re-allocation — the window in
// which the analysis cannot yet know it is back — so reports are the
// exception (accesses racing a free in the same epoch), not the rule. The
// period's last busy epoch re-allocates whatever is still free.
func genChurn(rng *rand.Rand, lifeguard string, slots, h, epochs int) *traffic {
	hp := slotHeap{slots: slots, size: 32}
	const never = int(^uint(0) >> 1)
	readyAt := make([]int, slots) // first epoch a slot may be accessed again
	freed := make([][]int, nThreads)
	backlog := h / 8 // frees a thread lets pile up before re-allocating
	last := epochs - quietEpochs - 1

	realloc := func(blk *[]trace.Event, t, l int) {
		s := freed[t][0]
		freed[t] = freed[t][1:]
		readyAt[s] = l + 3
		*blk = append(*blk,
			trace.Event{Kind: trace.Alloc, Addr: hp.addr(s), Size: hp.size},
			trace.Event{Kind: trace.Write, Addr: hp.addr(s), Size: hp.size})
	}
	b := &rowBuilder{h: h}
	for l := 0; l <= last; l++ {
		for t := 0; t < nThreads; t++ {
			blk := b.block(l, t)
			if l == last {
				for len(freed[t]) > 0 {
					realloc(blk, t, l)
				}
			}
			for len(*blk) < h {
				own := rng.Intn(slots/nThreads)*nThreads + t
				switch p := rng.Intn(100); {
				case p < 10 && l < last && readyAt[own] <= l && len(freed[t]) < 2*backlog:
					readyAt[own] = never
					freed[t] = append(freed[t], own)
					*blk = append(*blk, trace.Event{Kind: trace.Free, Addr: hp.addr(own), Size: hp.size})
				case p < 20 && len(freed[t]) > backlog && len(*blk)+2 <= h:
					realloc(blk, t, l)
				case p < 30 && readyAt[own] <= l:
					*blk = append(*blk, trace.Event{Kind: trace.Write, Addr: hp.addr(own) + uint64(rng.Intn(4))*8, Size: 8})
				default:
					s := rng.Intn(slots)
					if readyAt[s] > l {
						*blk = append(*blk, trace.Event{Kind: trace.Nop})
						continue
					}
					*blk = append(*blk, trace.Event{Kind: trace.Read, Addr: hp.addr(s) + uint64(rng.Intn(4))*8, Size: 8})
				}
			}
		}
	}
	return &traffic{lifeguard: lifeguard,
		prologue: hp.allocPrologue(h, true), period: b.finish()}
}

// genTaint is the TaintCheck traffic over 4096 locations. Every location is
// written only by its owning thread (location i belongs to thread i mod 4),
// sources are read from anywhere, and each thread untaints all it owns at
// the end of the period, which clears every taint the period introduced.
func genTaint(rng *rand.Rand, h, epochs int) *traffic {
	const locs = 4096
	loc := func(i int) uint64 { return heapBase + uint64(i)*8 }
	untaintAll := func() []row {
		b := &rowBuilder{h: h}
		for t := 0; t < nThreads; t++ {
			n := 0
			for i := t; i < locs; i += nThreads {
				blk := b.block(n/h, t)
				*blk = append(*blk, trace.Event{Kind: trace.Untaint, Addr: loc(i)})
				n++
			}
		}
		return b.finish()
	}
	tail := untaintAll()
	b := &rowBuilder{h: h}
	for l := 0; l < epochs-len(tail); l++ {
		for t := 0; t < nThreads; t++ {
			blk := b.block(l, t)
			for i := 0; i < h; i++ {
				own := loc(rng.Intn(locs/nThreads)*nThreads + t)
				any := func() uint64 { return loc(rng.Intn(locs)) }
				var e trace.Event
				switch p := rng.Intn(100); {
				case p < 2:
					e = trace.Event{Kind: trace.TaintSrc, Addr: own, Size: 1}
				case p < 12:
					e = trace.Event{Kind: trace.Untaint, Addr: own}
				case p < 50:
					e = trace.Event{Kind: trace.AssignUn, Addr: own, Src1: any()}
				case p < 70:
					e = trace.Event{Kind: trace.AssignBin, Addr: own, Src1: any(), Src2: any()}
				case p < 80:
					e = trace.Event{Kind: trace.Jump, Addr: own}
				default:
					e = trace.Event{Kind: trace.Nop}
				}
				*blk = append(*blk, e)
			}
		}
	}
	return &traffic{lifeguard: "taintcheck",
		prologue: untaintAll(), period: append(b.rows, tail...)}
}

// genLockset is the race-detector traffic: 4096 tracked bytes, each guarded
// by one of 64 locks (byte v by lock v mod 64) and only ever accessed inside
// a critical section of that lock, so no candidate lockset empties. The
// prologue has every byte written under its lock by one thread and read by
// another, after which the per-location state no longer grows.
func genLockset(rng *rand.Rand, h, epochs int) *traffic {
	const locs, locks = 4096, 64
	lockAddr := func(k int) uint64 { return heapBase + uint64(k)*8 }
	byteAddr := func(v int) uint64 { return heapBase + 1<<20 + uint64(v) }
	section := func(blk *[]trace.Event, k int, accesses []trace.Event) {
		*blk = append(*blk, trace.Event{Kind: trace.Lock, Addr: lockAddr(k)})
		*blk = append(*blk, accesses...)
		*blk = append(*blk, trace.Event{Kind: trace.Unlock, Addr: lockAddr(k)})
	}

	pro := &rowBuilder{h: locs/locks + 2}
	for pass, kind := range []trace.Kind{trace.Write, trace.Read} {
		for k := 0; k < locks; k++ {
			var acc []trace.Event
			for v := k; v < locs; v += locks {
				acc = append(acc, trace.Event{Kind: kind, Addr: byteAddr(v), Size: 1})
			}
			t := (k + pass) % nThreads
			section(pro.block(pass*locks+k, t), k, acc)
		}
	}

	b := &rowBuilder{h: h}
	for l := 0; l < epochs-quietEpochs; l++ {
		for t := 0; t < nThreads; t++ {
			blk := b.block(l, t)
			for {
				n := 1 + rng.Intn(4)
				if len(*blk)+n+2 > h {
					break // a critical section never spans two blocks
				}
				k := rng.Intn(locks)
				acc := make([]trace.Event, n)
				for i := range acc {
					kind := trace.Read
					if rng.Intn(5) < 2 {
						kind = trace.Write
					}
					acc[i] = trace.Event{Kind: kind, Addr: byteAddr(rng.Intn(locs/locks)*locks + k), Size: 1}
				}
				section(blk, k, acc)
			}
		}
	}
	return &traffic{lifeguard: "lockset", prologue: pro.finish(), period: b.finish()}
}

// blocks wraps a row's event slices in unlabelled blocks, the form a
// core.BlockSource yields; client.Run reads only their events.
func (r row) blocks() []*epoch.Block {
	out := make([]*epoch.Block, len(r))
	for t, evs := range r {
		out[t] = &epoch.Block{Events: evs}
	}
	return out
}
