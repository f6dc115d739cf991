package lifeguard

import (
	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// The §5.2 reaching-expressions equations over byte intervals, shared by the
// lifeguards whose SOS is "the bytes for which a fact holds" (AddrCheck:
// allocated, §6.1; MemCheck: defined). Each keeps its own summary type and
// tells the kernel where GEN and KILL live through a GenKill accessor.
//
// Work is proportional to the epoch, not to the state. An SOS generation is
// immutable from the moment UpdateSOS returns it until the engine's
// streamState.recycle hands it back: nobody writes it in between — not the
// first pass, whose T blocks read it concurrently, and not the next
// UpdateSOS, which reads it as prev while writing a fresh pooled set. An
// LSOS is therefore never a copy of the SOS but a sets.Overlay over it:
// the head's GEN and KILL and the block's own allocations and frees live in
// the overlay's two small sets, and the checks read through them to the
// shared generation. The one remaining O(|SOS|) step per epoch is the
// generation write in IntervalUpdateSOS, a single pass that block-copies
// what the epoch did not touch.

// GenKill returns a block summary's sequential GEN and KILL interval sets.
// It is never called with a nil summary.
type GenKill func(s core.Summary) (gen, kill *sets.IntervalSet)

// IntervalLSOS opens LSOS_{l,t} (§5.2.1 over intervals) as a view over the
// SOS generation: SOS bytes survive unless the head killed them; head GEN
// bytes survive unless another thread killed them in epoch l−2. The cost is
// that of the head summary, whatever the size of the SOS. Inputs are left
// untouched. The returned view is pooled; callers release it with
// sets.PutOverlay, before the generation under it is recycled.
func IntervalLSOS(t trace.ThreadID, ctx core.PassContext, gk GenKill) *sets.Overlay {
	out := sets.GetOverlay(ctx.SOS.(*sets.IntervalSet))
	if ctx.Head == nil {
		return out
	}
	headGen, headKill := gk(ctx.Head)
	out.RemoveSet(headKill)
	if headGen.Empty() {
		return out
	}
	fromHead := sets.GetSet()
	fromHead.CopyFrom(headGen)
	for tt, s2 := range ctx.Epoch2Back {
		if trace.ThreadID(tt) == t || s2 == nil {
			continue
		}
		_, kill := gk(s2)
		fromHead.SubtractInPlace(kill)
	}
	out.AddSet(fromHead)
	sets.PutSet(fromHead)
	return out
}

// IntervalUpdateSOS computes SOS_{l+2} = GENₗ ∪ (SOS_{l+1} − KILLₗ) with the
// reaching-expressions epoch summary (§5.2) over intervals:
//
//	KILLₗ = ⋃ₜ KILL_{l,t}
//	GENₗ  = ⋃ₜ (GEN_{l,t} − ⋃_{t'≠t} lost(t'))
//	lost(t') = killedSpan(t') − gennedSpan(t')
//
// where killedSpan(t') = KILL_{l−1,t'} ∪ KILL_{l,t'} and gennedSpan(t') =
// (GEN_{l−1,t'} − KILL_{l,t'}) ∪ GEN_{l,t'} — a byte generated by thread t
// survives every interleaving only if no other thread's net effect can kill
// it. lost(t') is computed once per thread and the exclusive unions come from
// a suffix fold and a running prefix (the shape of core's exclAggRow): O(T)
// set operations per epoch. Inputs are left untouched; the result is a fresh
// pooled set, written in one pass over prev (sets.AssignDelta).
func IntervalUpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary, gk GenKill) core.State {
	kill, gen := sets.GetSet(), sets.GetSet()
	anyGen := false
	for _, s := range curEpoch {
		g, k := gk(s)
		kill.UnionInPlace(k)
		anyGen = anyGen || !g.Empty()
	}
	if anyGen {
		epochGen(gen, prevEpoch, curEpoch, gk)
	}
	out := sets.GetSet()
	out.AssignDelta(prev.(*sets.IntervalSet), kill, gen)
	sets.PutSet(kill)
	sets.PutSet(gen)
	return out
}

// epochGen writes GENₗ into gen, which must be empty.
func epochGen(gen *sets.IntervalSet, prevEpoch, curEpoch []core.Summary, gk GenKill) {
	// lost[t] as defined above; after[t] = ⋃_{t'>t} lost[t']. The rows live on
	// the stack at the thread counts the engine is run at.
	var lostRow, afterRow [16]*sets.IntervalSet
	lost, after := lostRow[:0], afterRow[:0]
	scratch := sets.GetSet()
	for t, s := range curEpoch {
		curGen, curKill := gk(s)
		l := sets.GetSet()
		l.CopyFrom(curKill) // killedSpan, then minus gennedSpan
		if prevEpoch != nil && prevEpoch[t] != nil {
			prevGen, prevKill := gk(prevEpoch[t])
			l.UnionInPlace(prevKill)
			scratch.CopyFrom(prevGen)
			scratch.SubtractInPlace(curKill)
			l.SubtractInPlace(scratch)
		}
		l.SubtractInPlace(curGen)
		lost, after = append(lost, l), append(after, sets.GetSet())
	}
	for t := len(after) - 1; t > 0; t-- {
		after[t-1].CopyFrom(after[t])
		after[t-1].UnionInPlace(lost[t])
	}
	before, g := sets.GetSet(), scratch // before = ⋃_{t'<t} lost[t']
	for t, s := range curEpoch {
		gt, _ := gk(s)
		g.CopyFrom(gt)
		g.SubtractInPlace(before)
		g.SubtractInPlace(after[t])
		gen.UnionInPlace(g)
		before.UnionInPlace(lost[t])
		sets.PutSet(lost[t])
		sets.PutSet(after[t])
	}
	sets.PutSet(before)
	sets.PutSet(scratch)
}
