package addrcheck

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Sharded execution (DESIGN.md §11). Allocation metadata is per byte, so
// the state decomposes by address granule (sets.ShardOfAddr): shard k's task
// replays the block against shard k of the LSOS, restricted to each event
// range's shard-k pieces (sets.ForEachShardPiece), and records per-event
// verdict bits. The serial checks are all of the form "does every/any byte
// of [lo,hi) satisfy P against an address-indexed set" — a conjunction or
// disjunction over bytes — so the whole-range verdict is exactly the OR of
// the per-shard piece verdicts:
//
//   - ¬ContainsRange(lo,hi)  =  ⋁ₖ ¬ContainsRange(pieceₖ)   (access, free)
//   - OverlapsRange(lo,hi)   =  ⋁ₖ OverlapsRange(pieceₖ)    (double alloc,
//     isolation)
//
// Within one shard's replay, the pieces of a single event are pairwise
// disjoint, so applying piece 1's mutation before checking piece 2 cannot
// change piece 2's verdict — the per-piece checks all see exactly the
// serial pre-event state restricted to the shard. Merging the bits in event
// order then reconstructs the serial report sequence byte-for-byte (the
// report text names the full event range, not the piece).

var _ core.ShardedLifeguard = (*Butterfly)(nil)

// CanShard implements core.ShardedLifeguard.
func (a *Butterfly) CanShard() bool { return true }

// MergeSOS implements core.ShardedLifeguard.
func (a *Butterfly) MergeSOS(pieces []core.State) core.State {
	return lifeguard.MergeIntervalPieces(pieces)
}

// firstPassSharded runs the first pass as K per-shard tasks producing
// per-event verdict bits, merged in event order.
func (a *Butterfly) firstPassSharded(b *epoch.Block, ctx core.PassContext, sh *core.Sharding) (core.Summary, []core.Report) {
	K := sh.K()
	ss := &core.ShardedSummary{Pieces: make([]core.Summary, K)}
	bads := make(core.Verdicts, K)
	sh.Do(func(k int) {
		s := getSummary()
		lsos := a.lsos(b.Thread, ctx.Piece(k))
		defer sets.PutOverlay(lsos)
		setBad := func(i int) { bads.Set(k, i, len(b.Events)) }
		for i, e := range b.Events {
			if !a.relevant(e) {
				continue
			}
			lo, hi := e.Lo(), e.Hi()
			if sk, one := sets.SingleShardOfRange(lo, hi, K); one && sk != k {
				continue
			}
			switch e.Kind {
			case trace.Read, trace.Write:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					s.Access.AddRange(plo, phi)
					if !lsos.ContainsRange(plo, phi) {
						setBad(i)
					}
				})
			case trace.Alloc:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					if lsos.OverlapsRange(plo, phi) {
						setBad(i)
					}
					lsos.AddRange(plo, phi)
					s.Gen.AddRange(plo, phi)
					s.Kill.RemoveRange(plo, phi)
					s.GenAny.AddRange(plo, phi)
				})
			case trace.Free:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					if !lsos.ContainsRange(plo, phi) {
						setBad(i)
					}
					lsos.RemoveRange(plo, phi)
					s.Kill.AddRange(plo, phi)
					s.Gen.RemoveRange(plo, phi)
					s.KillAny.AddRange(plo, phi)
				})
			}
		}
		ss.Pieces[k] = s
	})
	var reports []core.Report
	for i, e := range b.Events {
		if !a.relevant(e) || !bads.Any(i) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		var code, detail string
		switch e.Kind {
		case trace.Read, trace.Write:
			code = CodeUnallocAccess
			detail = fmt.Sprintf("%v of [%#x,%#x) not within allocated memory", e.Kind, lo, hi)
		case trace.Alloc:
			code = CodeDoubleAlloc
			detail = fmt.Sprintf("allocation of [%#x,%#x) overlaps allocated memory", lo, hi)
		case trace.Free:
			code = CodeUnallocFree
			detail = fmt.Sprintf("free of [%#x,%#x) not within allocated memory", lo, hi)
		}
		reports = append(reports, core.Report{Ref: b.Ref(i), Ev: e, Code: code, Detail: detail})
	}
	return ss, reports
}

// secondPassSharded runs the isolation check as K per-shard tasks. Sharded
// runs never have driver wing aggregates (the driver disables them); each
// shard folds its own wing pieces, which costs the naive-walk O(T) unions
// per body but touches only shard k's intervals.
func (a *Butterfly) secondPassSharded(b *epoch.Block, wings []core.Summary, sh *core.Sharding) []core.Report {
	K := sh.K()
	bads := make(core.Verdicts, K)
	sh.Do(func(k int) {
		changes := sets.GetSet()
		access := sets.GetSet()
		defer sets.PutSet(changes)
		defer sets.PutSet(access)
		for _, ws := range wings {
			p := ws.(*core.ShardedSummary).Pieces[k].(*Summary)
			changes.UnionInPlace(p.GenAny)
			changes.UnionInPlace(p.KillAny)
			access.UnionInPlace(p.Access)
		}
		if changes.Empty() && access.Empty() {
			return
		}
		setBad := func(i int) { bads.Set(k, i, len(b.Events)) }
		for i, e := range b.Events {
			if !a.relevant(e) {
				continue
			}
			lo, hi := e.Lo(), e.Hi()
			if sk, one := sets.SingleShardOfRange(lo, hi, K); one && sk != k {
				continue
			}
			switch e.Kind {
			case trace.Read, trace.Write:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					if changes.OverlapsRange(plo, phi) {
						setBad(i)
					}
				})
			case trace.Alloc, trace.Free:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					if changes.OverlapsRange(plo, phi) || access.OverlapsRange(plo, phi) {
						setBad(i)
					}
				})
			}
		}
	})
	var reports []core.Report
	for i, e := range b.Events {
		if !a.relevant(e) || !bads.Any(i) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		var detail string
		switch e.Kind {
		case trace.Read, trace.Write:
			detail = fmt.Sprintf("%v of [%#x,%#x) concurrent with an allocation-state change", e.Kind, lo, hi)
		case trace.Alloc, trace.Free:
			detail = fmt.Sprintf("%v of [%#x,%#x) concurrent with a conflicting operation", e.Kind, lo, hi)
		}
		reports = append(reports, core.Report{Ref: b.Ref(i), Ev: e, Code: CodeIsolation, Detail: detail})
	}
	return reports
}
