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
package lockset

import (
	"fmt"
	"sort"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
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
	// inter is the intersection of locks held at the block's accesses
	// (nil = no accesses yet → universe).
	inter sets.Set
	// write records whether any access was a store.
	write bool
}

// Summary is the lockset first-pass block summary.
type Summary struct {
	thread trace.ThreadID
	// entryHeld/exitHeld are the locks held at block entry/exit, threaded
	// from head to body through the window.
	entryHeld, exitHeld sets.Set
	// perLoc summarizes accesses by location.
	perLoc map[uint64]*locInfo
}

// cand is the per-location strongly ordered candidate state.
type cand struct {
	c       sets.Set // nil = virgin (universe: every lock still a candidate)
	threads map[trace.ThreadID]struct{}
	write   bool
}

func (c *cand) clone() *cand {
	nc := &cand{write: c.write, threads: make(map[trace.ThreadID]struct{}, len(c.threads))}
	for t := range c.threads {
		nc.threads[t] = struct{}{}
	}
	if c.c != nil {
		nc.c = c.c.Clone()
	}
	return nc
}

// state is the SOS: per-location candidates.
type state struct {
	perLoc map[uint64]*cand
}

// BottomState implements core.Lifeguard.
func (l *Butterfly) BottomState() core.State {
	return &state{perLoc: map[uint64]*cand{}}
}

// StateSize implements core.StateSizer: the number of locations with a
// tracked candidate lockset.
func (l *Butterfly) StateSize(s core.State) int { return len(s.(*state).perLoc) }

func sum(s core.Summary) *Summary {
	if s == nil {
		return nil
	}
	return s.(*Summary)
}

// intersect returns a ∩ b where nil means the universe.
func intersect(a, b sets.Set) sets.Set {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil:
		return b.Clone()
	case b == nil:
		return a.Clone()
	default:
		return a.Intersect(b)
	}
}

// FirstPass implements core.Lifeguard: thread the held-lock set through the
// block and summarize per-location lock disciplines.
func (l *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	if ctx.Sharding != nil {
		return l.firstPassSharded(b, ctx, ctx.Sharding)
	}
	s := getSummary()
	s.thread = b.Thread
	s.entryHeld = sets.GetMap()
	if head := sum(ctx.Head); head != nil {
		s.entryHeld.AddAll(head.exitHeld)
	}
	held := sets.GetMap()
	held.AddAll(s.entryHeld)
	for _, e := range b.Events {
		switch e.Kind {
		case trace.Lock:
			held.Add(e.Addr)
		case trace.Unlock:
			held.Remove(e.Addr)
		case trace.Read, trace.Write:
			for a := e.Lo(); a < e.Hi(); a++ {
				li := s.perLoc[a]
				if li == nil {
					li = getLocInfo()
					li.inter = sets.GetMap()
					li.inter.AddAll(held)
					s.perLoc[a] = li
				} else {
					li.inter.IntersectInPlace(held)
				}
				li.write = li.write || e.Kind == trace.Write
			}
		}
	}
	s.exitHeld = held
	return s, nil
}

// SecondPass implements core.Lifeguard: check each access against the
// candidate refined by the strongly ordered past and every wing access.
func (l *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	if ctx.Sharding != nil {
		return l.secondPassSharded(b, ctx, wings, ctx.Sharding)
	}
	sos := ctx.SOS.(*state)
	own := sum(ctx.Own)
	held := sets.GetMap()
	defer sets.PutMap(held)
	held.AddAll(own.entryHeld)
	// Pre-aggregate the wings per location (each location only once).
	type wingAgg struct {
		inter   sets.Set
		write   bool
		threads map[trace.ThreadID]struct{}
	}
	agg := map[uint64]*wingAgg{}
	for _, w := range wings {
		ws := sum(w)
		for a, li := range ws.perLoc {
			wa := agg[a]
			if wa == nil {
				wa = &wingAgg{inter: nil, threads: map[trace.ThreadID]struct{}{}}
				agg[a] = wa
			}
			wa.inter = intersect(wa.inter, li.inter)
			wa.write = wa.write || li.write
			wa.threads[ws.thread] = struct{}{}
		}
	}

	var reports []core.Report
	flagged := sets.GetMap() // one report per location per block
	eff := sets.GetMap()     // per-byte scratch, reused
	thr := sets.GetMap()     // per-byte thread-id scratch, reused
	defer sets.PutMap(flagged)
	defer sets.PutMap(eff)
	defer sets.PutMap(thr)
	for i, e := range b.Events {
		switch e.Kind {
		case trace.Lock:
			held.Add(e.Addr)
		case trace.Unlock:
			held.Remove(e.Addr)
		case trace.Read, trace.Write:
			// One report per access event, covering all of its racing bytes.
			var raceLo, raceHi uint64
			var raceThreads map[trace.ThreadID]struct{}
			for a := e.Lo(); a < e.Hi(); a++ {
				if flagged.Has(a) {
					continue
				}
				eff.Clear()
				eff.AddAll(held)
				thr.Clear()
				thr.Add(uint64(b.Thread))
				write := e.Kind == trace.Write
				if sc, ok := sos.perLoc[a]; ok {
					if sc.c != nil {
						eff.IntersectInPlace(sc.c)
					}
					write = write || sc.write
					for t := range sc.threads {
						thr.Add(uint64(t))
					}
				}
				if wa, ok := agg[a]; ok {
					if wa.inter != nil {
						eff.IntersectInPlace(wa.inter)
					}
					write = write || wa.write
					for t := range wa.threads {
						thr.Add(uint64(t))
					}
				}
				// Accesses earlier in this block also refine (own info).
				if li, ok := own.perLoc[a]; ok {
					eff.IntersectInPlace(li.inter)
					write = write || li.write
				}
				if eff.Empty() && thr.Len() >= 2 && write {
					flagged.Add(a)
					if raceThreads == nil {
						raceLo = a
						raceThreads = make(map[trace.ThreadID]struct{}, thr.Len())
						for t := range thr {
							raceThreads[trace.ThreadID(t)] = struct{}{}
						}
					}
					raceHi = a + 1
				}
			}
			if raceThreads != nil {
				reports = append(reports, core.Report{
					Ref: b.Ref(i), Ev: e, Code: CodeRace,
					Detail: fmt.Sprintf("no common lock protects [%#x,%#x) (threads: %s)",
						raceLo, raceHi, threadList(raceThreads)),
				})
			}
		}
	}
	return reports
}

func threadList(m map[trace.ThreadID]struct{}) string {
	ids := make([]int, 0, len(m))
	for t := range m {
		ids = append(ids, int(t))
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}

// UpdateSOS implements core.Lifeguard: fold the epoch's per-location
// intersections into the candidates. Intersection is order-insensitive, so
// no two-epoch span correction is needed (there is no KILL: candidates only
// shrink).
func (l *Butterfly) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	old := prev.(*state)
	next := &state{perLoc: make(map[uint64]*cand, len(old.perLoc))}
	for a, c := range old.perLoc {
		next.perLoc[a] = c // shared until modified (copy-on-write below)
	}
	for _, s := range curEpoch {
		bs := sum(s)
		for a, li := range bs.perLoc {
			c := next.perLoc[a]
			if c == nil {
				c = &cand{threads: map[trace.ThreadID]struct{}{}}
			} else if c == old.perLoc[a] {
				c = c.clone()
			}
			c.c = intersect(c.c, li.inter)
			c.write = c.write || li.write
			c.threads[bs.thread] = struct{}{}
			next.perLoc[a] = c
		}
	}
	return next
}
