package reaching

import (
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// ReachingExprs is the butterfly formulation of dynamic parallel reaching
// (available) expressions (§5.2) — the dual of reaching definitions: an
// expression reaches a point only if *no* valid ordering kills it on the
// way, so killing is global (KILL-SIDE-OUT flows through the wings, met
// with union) and generation is local (GEN-SIDE-OUT = ∅).
type ReachingExprs struct {
	// U is the expression universe of the grid under analysis.
	U *ExprUniverse
	// Check, if set, runs during the second pass on every instruction with
	// its IN set (IN_{l,t,i} = LSOS_{l,t,i} − KILL-SIDE-IN).
	Check func(b *epoch.Block, i int, in sets.Set) []core.Report
	// Record retains per-instruction results (sequential driver only).
	Record bool

	recordings map[trace.Ref]*RERecord
}

// RESummary is the first-pass summary of one block for reaching expressions.
type RESummary struct {
	// Gen and Kill are the sequential block GEN/KILL.
	Gen, Kill sets.Set
	// KillSideOut is ⋃ᵢ KILL_{l,t,i}: expressions killed anywhere in the
	// block. The body of another butterfly may execute between this block's
	// kill and a later regeneration, so every kill is exposed (§5.2).
	KillSideOut sets.Set
}

// RERecord holds recorded pass-2 results of one block.
type RERecord struct {
	IN    []sets.Set
	BlkIN sets.Set
	Out   sets.Set
}

var _ core.Lifeguard = (*ReachingExprs)(nil)

// NewReachingExprs returns the analysis for a grid, building its expression
// universe.
func NewReachingExprs(g *epoch.Grid) *ReachingExprs {
	return &ReachingExprs{U: BuildExprUniverse(g)}
}

// Name implements core.Lifeguard.
func (re *ReachingExprs) Name() string { return "reaching-expressions" }

// BottomState implements core.Lifeguard: SOS₀ = ∅. (No expression is available
// before the program computes it.)
func (re *ReachingExprs) BottomState() core.State { return sets.NewSet() }

// StateSize implements core.StateSizer: the number of available expressions.
func (re *ReachingExprs) StateSize(s core.State) int { return s.(sets.Set).Len() }

func reSum(s core.Summary) *RESummary {
	if s == nil {
		return nil
	}
	return s.(*RESummary)
}

// lsos computes LSOS_{l,t} per §5.2.1:
//
//	LSOS = (GEN_{l−1,t} − ⋃_{t'≠t} KILL_{l−2,t'}) ∪ (SOSₗ − KILL_{l−1,t})
//
// A head-generated expression only survives to the body if no other thread
// kills it in epoch l−2 — the head may interleave with epoch l−2, so such a
// kill could land after the head's generation.
func (re *ReachingExprs) lsos(t trace.ThreadID, ctx core.PassContext) sets.Set {
	sos := ctx.SOS.(sets.Set)
	head := reSum(ctx.Head)
	if head == nil {
		return sos.Clone()
	}
	fromHead := head.Gen.Clone()
	for tt, s2 := range ctx.Epoch2Back {
		if trace.ThreadID(tt) == t || s2 == nil {
			continue
		}
		fromHead.RemoveAll(reSum(s2).Kill)
	}
	return fromHead.Union(sos.Difference(head.Kill))
}

// FirstPass implements core.Lifeguard.
func (re *ReachingExprs) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	effects := re.U.BlockExprEffects(b)
	blockSum := BlockSummary(effects)
	kso := sets.NewSet()
	for _, gk := range effects {
		if gk.Kill != nil {
			kso.AddAll(gk.Kill)
		}
	}
	return &RESummary{Gen: blockSum.Gen, Kill: blockSum.Kill, KillSideOut: kso}, nil
}

// SecondPass implements core.Lifeguard: KILL-SIDE-IN is the union of the wings'
// KILL-SIDE-OUT (the meet is ∪, not the classic ∩: *any* wing kill
// invalidates an expression); IN_{l,t,i} = LSOS_{l,t,i} − KILL-SIDE-IN.
func (re *ReachingExprs) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	ksi := sets.NewSet()
	for _, w := range wings {
		ksi.AddAll(reSum(w).KillSideOut)
	}
	lsos := re.lsos(b.Thread, ctx)
	blkIN := lsos.Difference(ksi)
	var reports []core.Report
	var recIN []sets.Set
	effects := re.U.BlockExprEffects(b)
	for i := range b.Events {
		in := lsos.Difference(ksi)
		if re.Record {
			recIN = append(recIN, in)
		}
		if re.Check != nil {
			reports = append(reports, re.Check(b, i, in)...)
		}
		if effects[i].Kill != nil {
			lsos.RemoveAll(effects[i].Kill)
		}
		if effects[i].Gen != nil {
			lsos.AddAll(effects[i].Gen)
		}
	}
	if re.Record {
		if re.recordings == nil {
			re.recordings = map[trace.Ref]*RERecord{}
		}
		blk := BlockSummary(effects)
		out := blk.Gen.Union(blkIN.Difference(blk.Kill))
		re.recordings[b.Ref(0)] = &RERecord{IN: recIN, BlkIN: blkIN, Out: out}
	}
	return reports
}

// Recording returns the recorded pass-2 results for block (l, t), or nil.
func (re *ReachingExprs) Recording(l int, t trace.ThreadID) *RERecord {
	return re.recordings[trace.Ref{Epoch: l, Thread: t, Index: 0}]
}

// UpdateSOS implements core.Lifeguard per §5.2:
//
//	KILLₗ = ⋃ₜ KILL_{l,t}
//	GENₗ  = ⋃ₜ (GEN_{l,t} ∩ ⋂_{t'≠t}(GEN_{(l−1,l),t'} ∪ NOT-KILL_{(l−1,l),t'}))
//	SOS'  = GENₗ ∪ (SOS − KILLₗ)
//
// with GEN_{(l−1,l),t} = (GEN_{l−1,t} − KILL_{l,t}) ∪ GEN_{l,t}. The roles of
// GEN and KILL are exactly reversed from reaching definitions.
func (re *ReachingExprs) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	sos := prev.(sets.Set)
	gen, kill := re.EpochGenKill(prevEpoch, curEpoch)
	return gen.Union(sos.Difference(kill))
}

// EpochGenKill exposes GENₗ/KILLₗ for tests and derived lifeguards.
func (re *ReachingExprs) EpochGenKill(prevEpoch, curEpoch []core.Summary) (gen, kill sets.Set) {
	kill = sets.NewSet()
	for _, s := range curEpoch {
		kill.AddAll(reSum(s).Kill)
	}
	gen = sets.NewSet()
	T := len(curEpoch)
	get := func(row []core.Summary, t int) *RESummary {
		if row == nil {
			return nil
		}
		return reSum(row[t])
	}
	for t := 0; t < T; t++ {
		st := reSum(curEpoch[t])
		for e := range st.Gen {
			if gen.Has(e) {
				continue
			}
			ok := true
			for tt := 0; tt < T; tt++ {
				if tt == t {
					continue
				}
				cur := reSum(curEpoch[tt])
				prev := get(prevEpoch, tt)
				// GEN_{(l−1,l),t'} = (GEN_{l−1,t'} − KILL_{l,t'}) ∪ GEN_{l,t'}
				genned := cur.Gen.Has(e) ||
					(prev != nil && prev.Gen.Has(e) && !cur.Kill.Has(e))
				// NOT-KILL_{(l−1,l),t'}: killed in neither epoch.
				notKilled := !cur.Kill.Has(e) && (prev == nil || !prev.Kill.Has(e))
				if !genned && !notKilled {
					ok = false
					break
				}
			}
			if ok {
				gen.Add(e)
			}
		}
	}
	return gen, kill
}
