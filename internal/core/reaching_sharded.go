package core

import (
	"butterfly/internal/dataflow"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
)

// Sharded execution of the two reference dataflow analyses (DESIGN.md §11).
// Both analyses are elementwise over packed fact IDs — every equation in
// §5.1/§5.2 decides membership of a fact from that fact's membership in the
// inputs — so restricting all inputs to the facts of shard k and running the
// unsharded equations computes exactly shard k of the result. The driver does
// that for the SOS update (shard.go); what is left here is the routing:
// splitting a block's one-time effect scan into per-shard pieces by
// sets.ShardOf.

var (
	_ ShardedLifeguard = (*ReachingDefs)(nil)
	_ ShardedLifeguard = (*ReachingExprs)(nil)
)

// mergeSetPieces is MergeSOS for a fact-set SOS: the pieces are disjoint, so
// the canonical state is their union.
func mergeSetPieces(pieces []State) State {
	out := sets.NewSet()
	for _, p := range pieces {
		out.AddAll(p.(sets.Set))
	}
	return out
}

// CanShard implements ShardedLifeguard. The Check and Record hooks observe
// full per-instruction IN sets, which span every shard; such configurations
// run unsharded.
func (rd *ReachingDefs) CanShard() bool { return rd.Check == nil && !rd.Record }

// MergeSOS implements ShardedLifeguard.
func (rd *ReachingDefs) MergeSOS(pieces []State) State { return mergeSetPieces(pieces) }

// firstPassSharded routes the block's one-time effect scan into per-shard
// pieces, then computes each piece's LSOS against its shard of the state as
// an independent task.
func (rd *ReachingDefs) firstPassSharded(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	sh := ctx.Sharding
	K := sh.K()
	effects := rd.U.BlockDefEffects(b)
	blockSum := dataflow.BlockSummary(effects)
	pieces := make([]*RDSummary, K)
	ss := &ShardedSummary{Pieces: make([]Summary, K)}
	for k := range pieces {
		pieces[k] = &RDSummary{
			Gen:        sets.NewSet(),
			Kill:       sets.NewSet(),
			GenSideOut: sets.NewSet(),
		}
		ss.Pieces[k] = pieces[k]
	}
	for d := range blockSum.Gen {
		pieces[sets.ShardOf(d, K)].Gen.Add(d)
	}
	for d := range blockSum.Kill {
		pieces[sets.ShardOf(d, K)].Kill.Add(d)
	}
	for _, gk := range effects {
		for d := range gk.Gen {
			pieces[sets.ShardOf(d, K)].GenSideOut.Add(d)
		}
	}
	sh.Do(func(k int) {
		pieces[k].LSOS = rd.lsos(b.Thread, ctx.Piece(k))
	})
	return ss, nil
}

// CanShard implements ShardedLifeguard; see ReachingDefs.CanShard.
func (re *ReachingExprs) CanShard() bool { return re.Check == nil && !re.Record }

// MergeSOS implements ShardedLifeguard.
func (re *ReachingExprs) MergeSOS(pieces []State) State { return mergeSetPieces(pieces) }

// firstPassSharded routes the effect scan into per-shard pieces.
func (re *ReachingExprs) firstPassSharded(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	K := ctx.Sharding.K()
	effects := re.U.BlockExprEffects(b)
	blockSum := dataflow.BlockSummary(effects)
	pieces := make([]*RESummary, K)
	ss := &ShardedSummary{Pieces: make([]Summary, K)}
	for k := range pieces {
		pieces[k] = &RESummary{
			Gen:         sets.NewSet(),
			Kill:        sets.NewSet(),
			KillSideOut: sets.NewSet(),
		}
		ss.Pieces[k] = pieces[k]
	}
	for e := range blockSum.Gen {
		pieces[sets.ShardOf(e, K)].Gen.Add(e)
	}
	for e := range blockSum.Kill {
		pieces[sets.ShardOf(e, K)].Kill.Add(e)
	}
	for _, gk := range effects {
		for e := range gk.Kill {
			pieces[sets.ShardOf(e, K)].KillSideOut.Add(e)
		}
	}
	return ss, nil
}
