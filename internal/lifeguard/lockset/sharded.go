package lockset

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Sharded execution (DESIGN.md §11). Lockset state is per byte location, so
// it decomposes by the fact-hash partition (sets.ShardOf): shard k's task
// owns the candidate locksets of exactly the locations hashing to k. Every
// per-byte computation — candidate refinement in the first pass, the race
// predicate in the second — depends only on that byte's own entries in the
// SOS, the wings and the block summary, so each shard replays the block and
// evaluates its own bytes independently.
//
// The held-lock set is intra-thread control state, not address-indexed: it
// is NOT sharded. Every shard task replays the block's Lock/Unlock events to
// maintain its own copy, trading K cheap replays (lock events are rare) for
// zero cross-shard synchronization.
//
// Race reports carry a per-event byte range and thread list. The serial pass
// scans an access's bytes in ascending order and reports [first flagged
// byte, last flagged byte) with the thread set of the *first* flagged byte.
// Each shard records (min, max, threads-of-min) over its own flagged bytes;
// the merge takes the global min and max and the thread set of the shard
// owning the global min — exactly the serial values, emitted in the serial
// event order.

var _ core.ShardedLifeguard = (*Butterfly)(nil)

// CanShard implements core.ShardedLifeguard.
func (l *Butterfly) CanShard() bool { return true }

// MergeSOS implements core.ShardedLifeguard: the shards' location maps are
// disjoint, so the canonical state is their union.
func (l *Butterfly) MergeSOS(pieces []core.State) core.State {
	n := 0
	for _, p := range pieces {
		n += len(p.(*state).perLoc)
	}
	out := &state{perLoc: make(map[uint64]*cand, n)}
	for _, p := range pieces {
		for a, c := range p.(*state).perLoc {
			out.perLoc[a] = c
		}
	}
	return out
}

// firstPassSharded threads the held-lock set per shard and partitions the
// per-location summaries: every piece carries the full entryHeld/exitHeld
// (identical contents, independent sets so shard tasks never share mutable
// state); only perLoc is partitioned.
func (l *Butterfly) firstPassSharded(b *epoch.Block, ctx core.PassContext, sh *core.Sharding) (core.Summary, []core.Report) {
	K := sh.K()
	ss := &core.ShardedSummary{Pieces: make([]core.Summary, K)}
	head, _ := ctx.Head.(*core.ShardedSummary)
	sh.Do(func(k int) {
		s := getSummary()
		s.thread = b.Thread
		s.entryHeld = sets.GetMap()
		if head != nil {
			s.entryHeld.AddAll(head.Pieces[k].(*Summary).exitHeld)
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
					if sets.ShardOf(a, K) != k {
						continue
					}
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
		ss.Pieces[k] = s
	})
	return ss, nil
}

// evRace is one shard's racing-byte record for one event.
type evRace struct {
	lo, hi  uint64 // min and max flagged byte of this shard (hi inclusive)
	threads map[trace.ThreadID]struct{}
}

// secondPassSharded evaluates the race predicate per shard and merges the
// per-event racing ranges into the serial report sequence.
func (l *Butterfly) secondPassSharded(b *epoch.Block, ctx core.PassContext, wings []core.Summary, sh *core.Sharding) []core.Report {
	K := sh.K()
	sos := ctx.SOS.(core.ShardedState)
	own := ctx.Own.(*core.ShardedSummary)
	races := make([]map[int]*evRace, K)
	sh.Do(func(k int) {
		sosK := sos[k].(*state)
		ownK := own.Pieces[k].(*Summary)
		held := ownK.entryHeld.Clone()
		agg := map[uint64]*wingLocAgg{}
		for _, w := range wings {
			ws := w.(*core.ShardedSummary).Pieces[k].(*Summary)
			for a, li := range ws.perLoc {
				wa := agg[a]
				if wa == nil {
					wa = &wingLocAgg{inter: nil, threads: map[trace.ThreadID]struct{}{}}
					agg[a] = wa
				}
				wa.inter = intersect(wa.inter, li.inter)
				wa.write = wa.write || li.write
				wa.threads[ws.thread] = struct{}{}
			}
		}
		flaggedLoc := map[uint64]bool{}
		var out map[int]*evRace
		for i, e := range b.Events {
			switch e.Kind {
			case trace.Lock:
				held.Add(e.Addr)
			case trace.Unlock:
				held.Remove(e.Addr)
			case trace.Read, trace.Write:
				var r *evRace
				for a := e.Lo(); a < e.Hi(); a++ {
					if sets.ShardOf(a, K) != k || flaggedLoc[a] {
						continue
					}
					eff := held.Clone()
					write := e.Kind == trace.Write
					threads := map[trace.ThreadID]struct{}{b.Thread: {}}
					if sc, ok := sosK.perLoc[a]; ok {
						eff = intersect(eff, sc.c)
						write = write || sc.write
						for t := range sc.threads {
							threads[t] = struct{}{}
						}
					}
					if wa, ok := agg[a]; ok {
						eff = intersect(eff, wa.inter)
						write = write || wa.write
						for t := range wa.threads {
							threads[t] = struct{}{}
						}
					}
					if li, ok := ownK.perLoc[a]; ok {
						eff = intersect(eff, li.inter)
						write = write || li.write
					}
					if eff != nil && eff.Empty() && len(threads) >= 2 && write {
						flaggedLoc[a] = true
						if r == nil {
							r = &evRace{lo: a, threads: threads}
						}
						r.hi = a
					}
				}
				if r != nil {
					if out == nil {
						out = map[int]*evRace{}
					}
					out[i] = r
				}
			}
		}
		races[k] = out
	})

	var reports []core.Report
	for i, e := range b.Events {
		if e.Kind != trace.Read && e.Kind != trace.Write {
			continue
		}
		var merged *evRace
		for k := 0; k < K; k++ {
			r := races[k][i]
			if r == nil {
				continue
			}
			if merged == nil {
				merged = &evRace{lo: r.lo, hi: r.hi, threads: r.threads}
				continue
			}
			if r.lo < merged.lo {
				merged.lo, merged.threads = r.lo, r.threads
			}
			if r.hi > merged.hi {
				merged.hi = r.hi
			}
		}
		if merged != nil {
			reports = append(reports, core.Report{
				Ref: b.Ref(i), Ev: e, Code: CodeRace,
				Detail: fmt.Sprintf("no common lock protects [%#x,%#x) (threads: %s)",
					merged.lo, merged.hi+1, threadList(merged.threads)),
			})
		}
	}
	return reports
}

// wingLocAgg mirrors the serial second pass's per-location wing fold.
type wingLocAgg struct {
	inter   sets.Set
	write   bool
	threads map[trace.ThreadID]struct{}
}
