// Package lockset implements a lockset-based data-race detector in the
// Eraser style (the paper cites Eraser [34] as a canonical lifeguard, and
// §5 names race detectors among the generate/propagate analyses butterfly
// analysis covers). Per memory location the detector maintains a *candidate
// lockset* C(v): the intersection of the locks held at every access to v.
// If C(v) becomes empty while v has been accessed by more than one thread
// with at least one write, no single lock protects v — a potential race.
//
// The semantics implemented (by both the butterfly version and the oracle)
// is the simplified discipline: C(v) ∩= locks-held at every access; flag an
// access when the intersection so far is empty, at least two distinct
// threads have accessed v, and at least one access was a write.
//
// Lockset refinement is pure intersection — commutative and associative —
// which makes it a perfect fit for butterfly analysis: the per-epoch merge
// is order-insensitive, so the only uncertainty left is *which* accesses
// are visible, and including more (the whole wings) is conservative. The
// held-lock set itself is intra-thread state, threaded exactly from block
// to block through the head's summary (the driver guarantees the head's
// first pass completes first).
//
// Representation. A lockset is an immutable sorted []uint64 of lock
// addresses, nil meaning empty, built and met by the sorted-vector kernels
// of internal/sets (vec.go). Candidates and per-block location infos are
// values in plain maps, and a candidate's thread set is a bitmask with a
// sorted spill for ids of 64 and up. Nothing is interned, so every value is
// a function of the input alone and serial and parallel runs agree under
// reflect.DeepEqual.
//
// The arena rule. A block summary owns an arena, and every lockset the
// summary holds is a capacity-clipped window of it: the held-set snapshot
// taken at each Lock/Unlock, and each per-location meet whose result differs
// from both inputs. The arena is refilled when the engine hands the summary
// back for reuse, so nothing outside a summary keeps a slice of its arena:
// UpdateSOS copies every lockset it adopts into memory the SOS owns, and
// SecondPass meets into stack scratch. SOS locksets are never written after
// they are made.
//
// The version chain. SOS generations form a chain in which only the newest
// holds the session's one candidate map (Baker's rerooting, as in
// semi-persistent arrays). UpdateSOS hands that map on to the new
// generation and writes only the candidates the epoch changed; the
// generation it supersedes keeps an undo record of the values overwritten
// and a pointer to its successor, so an older generation reads through its
// undo records and then the live map. The engine's history is linear
// (core.Lifeguard: one update per generation, always of the newest), so an
// update costs what the epoch changed, never the size of the state.
package lockset

import (
	"math/bits"
	"slices"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// CodeRace flags an access to a location with an empty candidate lockset.
const CodeRace = "lockset.potential-data-race"

// Butterfly is the butterfly-analysis lockset race detector.
type Butterfly struct{}

var _ core.Lifeguard = (*Butterfly)(nil)

// New returns a lockset race detector.
func New() *Butterfly { return &Butterfly{} }

// Name implements core.Lifeguard.
func (l *Butterfly) Name() string { return "lockset" }

// locInfo summarizes one block's accesses to one location.
type locInfo struct {
	// inter is the intersection of the locks held at the block's accesses,
	// a window of the summary's arena.
	inter []uint64
	// write records whether any access was a store.
	write bool
}

// Summary is the lockset first-pass block summary.
type Summary struct {
	thread trace.ThreadID
	// entryHeld/exitHeld are the locks held at block entry/exit, threaded
	// from head to body through the window.
	entryHeld, exitHeld []uint64
	// perLoc summarizes accesses by location.
	perLoc map[uint64]locInfo
	// arena backs every lockset above.
	arena []uint64
	// details is the report builder of the block's thread. A thread runs
	// one pass at a time, so all its summaries share one: a new summary
	// takes its head's.
	details *lifeguard.Details
}

// poisonLock fills a reclaimed arena in race builds, following the sets
// package's poisonAddr: a live aliased reader of a reused arena sees this
// implausible lock instead of silently stale locksets.
const poisonLock = 0xdead_dead_dead_dead

// reclaimArena empties an arena for its summary's next block. In race
// builds it is poisoned instead and not reused, so a stale reader of one of
// its locksets meets poisonLock rather than the next block's.
func reclaimArena(arena []uint64) []uint64 {
	if !sets.RaceEnabled {
		return arena[:0]
	}
	arena = arena[:cap(arena)]
	for i := range arena {
		arena[i] = poisonLock
	}
	return nil
}

// summaryFor returns the summary a first pass fills: ctx.Reuse emptied,
// its location map and arena kept, or a new summary when there is none to
// reuse.
func summaryFor(ctx core.PassContext) *Summary {
	s, _ := ctx.Reuse.(*Summary)
	if s == nil {
		s = &Summary{perLoc: map[uint64]locInfo{}}
		if head, _ := ctx.Head.(*Summary); head != nil {
			s.details = head.details
		}
		if s.details == nil {
			s.details = new(lifeguard.Details)
		}
		return s
	}
	s.entryHeld, s.exitHeld = nil, nil
	clear(s.perLoc)
	s.arena = reclaimArena(s.arena)
	return s
}

// keep copies v into the arena and returns the copy.
func (s *Summary) keep(v []uint64) []uint64 {
	n := len(s.arena)
	s.arena = append(s.arena, v...)
	return s.seal(n)
}

// meet returns a ∩ b: an input when the result equals it, else an arena copy.
func (s *Summary) meet(a, b []uint64) []uint64 {
	switch {
	case sets.Subset(a, b):
		return a
	case sets.Subset(b, a):
		return b
	}
	n := len(s.arena)
	s.arena = sets.AppendMeet(s.arena, a, b)
	return s.seal(n)
}

// seal returns the arena entries from n on as a lockset; the capacity clip
// keeps later appends out of it.
func (s *Summary) seal(n int) []uint64 {
	if len(s.arena) == n {
		return nil
	}
	return s.arena[n:len(s.arena):len(s.arena)]
}

// threadSet is a set of thread ids: a bitmask below 64 and a sorted spill
// from 64 up. The spill is immutable like a lockset, so candidates that
// share it across generations stay independent.
type threadSet struct {
	mask  uint64
	spill []trace.ThreadID
}

// with returns ts ∪ {t}.
func (ts threadSet) with(t trace.ThreadID) threadSet {
	if t < 64 {
		ts.mask |= 1 << t
	} else if i, found := slices.BinarySearch(ts.spill, t); !found {
		ts.spill = slices.Insert(slices.Clip(ts.spill), i, t)
	}
	return ts
}

// has reports whether t is in ts.
func (ts threadSet) has(t trace.ThreadID) bool {
	if t < 64 {
		return ts.mask&(1<<t) != 0
	}
	_, found := slices.BinarySearch(ts.spill, t)
	return found
}

// hasOther reports whether ts holds a thread other than t.
func (ts threadSet) hasOther(t trace.ThreadID) bool {
	mask := ts.mask
	if t < 64 {
		mask &^= 1 << t
	}
	return mask != 0 || len(ts.spill) > 1 || len(ts.spill) == 1 && ts.spill[0] != t
}

// appendIDs appends the members of ts to ids in ascending order.
func (ts threadSet) appendIDs(ids []int) []int {
	for m := ts.mask; m != 0; m &= m - 1 {
		ids = append(ids, bits.TrailingZeros64(m))
	}
	for _, t := range ts.spill {
		ids = append(ids, int(t))
	}
	return ids
}

// cand is the per-location strongly ordered candidate state. ls is never
// the universe: a candidate exists only once its location was accessed.
type cand struct {
	ls      []uint64
	threads threadSet
	write   bool
}

// state is one SOS generation: per-location candidates, held as a node of
// the version chain (see the package comment).
type state struct {
	// live is the session's candidate map; only the newest generation has
	// it.
	live map[uint64]cand
	// undo holds, once the generation is superseded, its own candidates at
	// the locations its successor changed; nil until the successor changes
	// one.
	undo map[uint64]prior
	// next is the successor; nil in the newest generation.
	next *state
	// size is the number of locations with a candidate.
	size int
}

// prior is a candidate as an undo record keeps it; ok is false where the
// location had none.
type prior struct {
	c  cand
	ok bool
}

// lookup returns location a's candidate in generation s: the first undo
// record on the way to the newest generation that holds a, else the live
// map.
func (s *state) lookup(a uint64) (cand, bool) {
	g := s
	for g.live == nil {
		if g.next == nil {
			panic("lockset: read of a reused SOS generation")
		}
		if p, ok := g.undo[a]; ok {
			return p.c, p.ok
		}
		g = g.next
	}
	c, ok := g.live[a]
	return c, ok
}

// poisonedGen is what a generation handed back points at in race builds,
// where its shell is not reused: a stale lookup reaches it and panics
// instead of reading its successor's candidates.
var poisonedGen state

// shellFor returns the shell of the generation UpdateSOS builds: dead's,
// emptied, or a new one. Only the shell is reused: dead's undo map goes to
// the garbage collector, because clearing a Go map costs its capacity, so a
// reused undo map that once held a large epoch would tax every later
// update; the live map is never dead's (it has passed on to prev); and the
// candidates' locksets are shared with later generations. In race builds
// dead is poisoned instead and not reused.
func shellFor(dead core.State) *state {
	s, _ := dead.(*state)
	switch {
	case s == nil:
		return new(state)
	case sets.RaceEnabled:
		*s = state{next: &poisonedGen}
		return new(state)
	}
	*s = state{}
	return s
}

// BottomState implements core.Lifeguard.
func (l *Butterfly) BottomState() core.State {
	return &state{live: map[uint64]cand{}}
}

// StateSize implements core.StateSizer: the number of locations with a
// tracked candidate lockset.
func (l *Butterfly) StateSize(s core.State) int { return s.(*state).size }

// FirstPass implements core.Lifeguard: thread the held-lock set through the
// block and summarize per-location lock disciplines.
func (l *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := summaryFor(ctx)
	s.thread = b.Thread
	if head, _ := ctx.Head.(*Summary); head != nil {
		s.entryHeld = s.keep(head.exitHeld)
	}
	var buf [8]uint64
	held := append(buf[:0], s.entryHeld...)
	cur := s.entryHeld // the arena snapshot of held
	for _, e := range b.Events {
		switch e.Kind {
		case trace.Lock, trace.Unlock:
			n := len(held)
			if e.Kind == trace.Lock {
				held = sets.Insert(held, e.Addr)
			} else {
				held = sets.Remove(held, e.Addr)
			}
			if len(held) != n {
				cur = s.keep(held)
			}
		case trace.Read, trace.Write:
			for a := e.Lo(); a < e.Hi(); a++ {
				li, ok := s.perLoc[a]
				if ok {
					li.inter = s.meet(li.inter, cur)
				} else {
					li.inter = cur
				}
				li.write = li.write || e.Kind == trace.Write
				s.perLoc[a] = li
			}
		}
	}
	s.exitHeld = cur
	return s, nil
}

// SecondPass implements core.Lifeguard: check each access against the
// candidate refined by the strongly ordered past and every wing access.
func (l *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	sos := ctx.SOS.(*state)
	own := ctx.Own.(*Summary)
	var heldBuf, effBuf [8]uint64
	held := append(heldBuf[:0], own.entryHeld...)
	details := own.details
	var threadBuf [8]int        // scratch for a report's thread list
	var flagged map[uint64]bool // one report per location per block
	for i, e := range b.Events {
		switch e.Kind {
		case trace.Lock:
			held = sets.Insert(held, e.Addr)
		case trace.Unlock:
			held = sets.Remove(held, e.Addr)
		case trace.Read, trace.Write:
			// One report per access event, covering all of its racing bytes.
			var raceLo, raceHi uint64
			var raceThreads []int
			for a := e.Lo(); a < e.Hi(); a++ {
				if flagged[a] {
					continue
				}
				eff := append(effBuf[:0], held...)
				write := e.Kind == trace.Write
				sc, inSOS := sos.lookup(a)
				if inSOS {
					eff = sets.MeetInto(eff, sc.ls)
					write = write || sc.write
				}
				shared := inSOS && sc.threads.hasOther(b.Thread)
				for _, w := range wings {
					if li, ok := w.(*Summary).perLoc[a]; ok {
						eff = sets.MeetInto(eff, li.inter)
						write = write || li.write
						shared = true // a wing is always another thread
					}
				}
				// Every access of this block also refines (own info).
				if li, ok := own.perLoc[a]; ok {
					eff = sets.MeetInto(eff, li.inter)
					write = write || li.write
				}
				if len(eff) != 0 || !shared || !write {
					continue
				}
				if flagged == nil {
					flagged = map[uint64]bool{}
				}
				flagged[a] = true
				if raceThreads == nil {
					raceLo = a
					raceThreads = threadsAt(threadBuf[:0], a, b.Thread, sc.threads, wings)
				}
				raceHi = a + 1
			}
			if raceThreads != nil {
				details.Str("no common lock protects ").Range(raceLo, raceHi).
					Str(" (threads: ").Ints(raceThreads).Str(")")
				details.Report(core.Report{Ref: b.Ref(i), Ev: e, Code: CodeRace})
			}
		}
	}
	return details.Finish()
}

// threadsAt appends to ids, sorted, the threads known to have accessed a:
// the body's own, the candidate's, and every wing's that touched it.
func threadsAt(ids []int, a uint64, self trace.ThreadID, sos threadSet, wings []core.Summary) []int {
	ids = sos.appendIDs(append(ids, int(self)))
	for _, w := range wings {
		ws := w.(*Summary)
		if _, ok := ws.perLoc[a]; ok {
			ids = append(ids, int(ws.thread))
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// UpdateSOS implements core.Lifeguard: fold the epoch's per-location
// intersections into the candidates. Intersection is order-insensitive, so
// no two-epoch span correction is needed (there is no KILL: candidates only
// shrink). The new generation takes over prev's live map and writes only
// the candidates that change — a new location, a shrunk lockset, a new
// thread or a first write — saving each overwritten value in prev's undo
// record; a lockset is copied out of a summary's arena only when its
// candidate is new or shrinks. prev must be the newest generation; the new
// one reuses dead's shell.
func (l *Butterfly) UpdateSOS(prev, dead core.State, prevEpoch, curEpoch []core.Summary) core.State {
	old := prev.(*state)
	if old.live == nil {
		panic("lockset: UpdateSOS of a superseded SOS generation")
	}
	next := shellFor(dead)
	next.live, next.size = old.live, old.size
	old.live, old.next = nil, next
	live := next.live
	for _, s := range curEpoch {
		bs := s.(*Summary)
		for a, li := range bs.perLoc {
			c, ok := live[a]
			was := prior{c, ok}
			switch {
			case !ok:
				c.ls = slices.Clone(li.inter)
				next.size++
			case !sets.Subset(c.ls, li.inter):
				c.ls = slices.Clip(sets.AppendMeet(nil, c.ls, li.inter))
			case (c.write || !li.write) && c.threads.has(bs.thread):
				continue // unchanged
			}
			if _, saved := old.undo[a]; !saved {
				if old.undo == nil {
					old.undo = map[uint64]prior{}
				}
				old.undo[a] = was
			}
			c.write = c.write || li.write
			c.threads = c.threads.with(bs.thread)
			live[a] = c
		}
	}
	return next
}
