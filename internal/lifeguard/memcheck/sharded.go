package memcheck

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Sharded execution (DESIGN.md §11). Definedness facts are per byte, so the
// state decomposes by address granule (sets.ShardOfAddr): shard k's task
// replays the block's events against shard k of the LSOS, restricted to the
// event range's shard-k pieces (sets.ForEachShardPiece), and records a
// per-event verdict bit. A whole-range definedness check is the conjunction
// of its per-piece checks, so "report" (its negation) is the disjunction of
// the per-shard bits; merging the bits in event order reconstructs the
// serial report sequence exactly, including report text, which names the
// full event range.

var _ core.ShardedLifeguard = (*Butterfly)(nil)

// CanShard implements core.ShardedLifeguard.
func (m *Butterfly) CanShard() bool { return true }

// MergeSOS implements core.ShardedLifeguard.
func (m *Butterfly) MergeSOS(pieces []core.State) core.State {
	return lifeguard.MergeIntervalPieces(pieces)
}

// firstPassSharded runs the first pass as K per-shard tasks producing
// per-event verdict bits, then merges the bits in event order.
func (m *Butterfly) firstPassSharded(b *epoch.Block, ctx core.PassContext, sh *core.Sharding) (core.Summary, []core.Report) {
	K := sh.K()
	ss := &core.ShardedSummary{Pieces: make([]core.Summary, K)}
	bads := make(core.Verdicts, K)
	sh.Do(func(k int) {
		s := getSummary()
		lsos := m.lsos(b.Thread, ctx.Piece(k))
		defer sets.PutOverlay(lsos)
		for i, e := range b.Events {
			if !m.relevant(e) {
				continue
			}
			lo, hi := e.Lo(), e.Hi()
			if sk, one := sets.SingleShardOfRange(lo, hi, K); one && sk != k {
				continue
			}
			switch e.Kind {
			case trace.Read:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					s.Reads.AddRange(plo, phi)
					if !lsos.ContainsRange(plo, phi) {
						bads.Set(k, i, len(b.Events))
					}
				})
			case trace.Write:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
					lsos.AddRange(plo, phi)
					s.Gen.AddRange(plo, phi)
					s.Kill.RemoveRange(plo, phi)
				})
			case trace.Alloc, trace.Free:
				sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
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
		if e.Kind != trace.Read || !m.relevant(e) || !bads.Any(i) {
			continue
		}
		reports = append(reports, core.Report{
			Ref: b.Ref(i), Ev: e, Code: CodeUndefRead,
			Detail: fmt.Sprintf("read of [%#x,%#x) may see uninitialized memory", e.Lo(), e.Hi()),
		})
	}
	return ss, reports
}

// secondPassSharded runs the isolation check as K per-shard tasks.
func (m *Butterfly) secondPassSharded(b *epoch.Block, wings []core.Summary, sh *core.Sharding) []core.Report {
	K := sh.K()
	bads := make(core.Verdicts, K)
	sh.Do(func(k int) {
		wingKills := sets.GetSet()
		defer sets.PutSet(wingKills)
		for _, w := range wings {
			wingKills.UnionInPlace(w.(*core.ShardedSummary).Pieces[k].(*Summary).KillAny)
		}
		if wingKills.Empty() {
			return
		}
		for i, e := range b.Events {
			if e.Kind != trace.Read || !m.relevant(e) {
				continue
			}
			lo, hi := e.Lo(), e.Hi()
			if sk, one := sets.SingleShardOfRange(lo, hi, K); one && sk != k {
				continue
			}
			sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
				if wingKills.OverlapsRange(plo, phi) {
					bads.Set(k, i, len(b.Events))
				}
			})
		}
	})
	var reports []core.Report
	for i, e := range b.Events {
		if e.Kind != trace.Read || !m.relevant(e) || !bads.Any(i) {
			continue
		}
		reports = append(reports, core.Report{
			Ref: b.Ref(i), Ev: e, Code: CodeIsolation,
			Detail: fmt.Sprintf("read of [%#x,%#x) concurrent with a definedness change", e.Lo(), e.Hi()),
		})
	}
	return reports
}
