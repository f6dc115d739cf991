// Package reaching holds the paper's §5 analyses, butterfly reaching
// definitions (§5.1) and butterfly reaching (available) expressions (§5.2),
// together with their sequential formulations (oracle.go). They are laid out
// like the checking lifeguards: butterfly analyses that implement
// core.Lifeguard, plus the sequential oracles they are checked against.
//
// Lemma 5.1 and 5.2 relate the butterfly GENₗ/KILLₗ/SOS sets to running the
// sequential analysis over every valid ordering; the tests of this package
// check both lemmas, and the soundness of every IN set, by exhaustive
// enumeration. The lifeguards of §6 specialise these two analyses (AddrCheck
// and MemCheck are reaching expressions over byte intervals, TaintCheck is
// reaching definitions over transfer functions); this package is their
// executable specification, which is why it is ordinary code and not test
// code. Facts are held in the map-backed sets.Set: clarity over speed.
package reaching

import (
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// ReachingDefs is the butterfly formulation of dynamic parallel reaching
// definitions (§5.1). Facts are packed instruction refs; each defining
// instruction is its own definition of the address it writes.
//
// Generation is global: a definition in a block is visible to any block in
// its wings (GEN-SIDE-OUT = every def generated anywhere in the block).
// Killing is local: KILL-SIDE-OUT is conservatively the universe, so kills
// never flow through the wings — only through the SOS.
type ReachingDefs struct {
	// U is the definition universe of the grid under analysis.
	U *DefUniverse
	// Check, if set, runs during the second pass on every instruction with
	// its IN set (IN_{l,t,i} = GEN-SIDE-IN ∪ LSOS_{l,t,i}); returned reports
	// are collected. This is the hook lifeguards built on reaching
	// definitions use.
	Check func(b *epoch.Block, i int, in sets.Set) []core.Report
	// Record retains per-instruction IN sets and block IN/OUT for
	// inspection by tests via Recording. Recording mutates analysis-local
	// state, so it requires the sequential driver (Parallel=false).
	Record bool

	recordings map[trace.Ref]*RDRecord
}

// RDSummary is the first-pass summary of one block for reaching definitions.
type RDSummary struct {
	// Gen and Kill are the sequential block GEN/KILL (§5: "their sequential
	// formulations ... over an entire block").
	Gen, Kill sets.Set
	// GenSideOut is ⋃ᵢ GEN_{l,t,i}: definitions generated anywhere in the
	// block, visible whenever the block is in someone's wings.
	GenSideOut sets.Set
	// LSOS is LSOS_{l,t} at block entry (recorded for reuse in pass 2).
	LSOS sets.Set
	// IN and OUT are recorded per-instruction results (Record only).
	IN  []sets.Set
	Out sets.Set
}

var _ core.Lifeguard = (*ReachingDefs)(nil)

// NewReachingDefs returns the analysis for a grid, building its definition
// universe.
func NewReachingDefs(g *epoch.Grid) *ReachingDefs {
	return &ReachingDefs{U: BuildDefUniverse(g)}
}

// Name implements core.Lifeguard.
func (rd *ReachingDefs) Name() string { return "reaching-definitions" }

// BottomState implements core.Lifeguard: SOS₀ = ∅.
func (rd *ReachingDefs) BottomState() core.State { return sets.NewSet() }

// StateSize implements core.StateSizer: the number of reaching definitions.
func (rd *ReachingDefs) StateSize(s core.State) int { return s.(sets.Set).Len() }

func rdSum(s core.Summary) *RDSummary {
	if s == nil {
		return nil
	}
	return s.(*RDSummary)
}

// lsos computes LSOS_{l,t} per §5.1.2:
//
//	LSOS = GEN_{l−1,t} ∪ (SOSₗ − KILL_{l−1,t})
//	     ∪ {d ∈ SOSₗ ∩ KILL_{l−1,t} : ∃t'≠t, d ∈ GEN_{l−2,t'}}
//
// The third term exists because the head can interleave with epoch l−2 of
// other threads: a definition the head killed may be re-established by an
// epoch l−2 instruction that executes after the head's kill.
func (rd *ReachingDefs) lsos(t trace.ThreadID, ctx core.PassContext) sets.Set {
	sos := ctx.SOS.(sets.Set)
	head := rdSum(ctx.Head)
	if head == nil {
		return sos.Clone()
	}
	out := head.Gen.Union(sos.Difference(head.Kill))
	for d := range sos {
		if !head.Kill.Has(d) {
			continue
		}
		for tt, s2 := range ctx.Epoch2Back {
			if trace.ThreadID(tt) == t || s2 == nil {
				continue
			}
			if rdSum(s2).Gen.Has(d) {
				out.Add(d)
				break
			}
		}
	}
	return out
}

// FirstPass implements core.Lifeguard: compute GEN_{l,t}, KILL_{l,t},
// GEN-SIDE-OUT_{l,t} and the LSOS.
func (rd *ReachingDefs) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	effects := rd.U.BlockDefEffects(b)
	blockSum := BlockSummary(effects)
	gso := sets.NewSet()
	for _, gk := range effects {
		if gk.Gen != nil {
			gso.AddAll(gk.Gen)
		}
	}
	return &RDSummary{
		Gen:        blockSum.Gen,
		Kill:       blockSum.Kill,
		GenSideOut: gso,
		LSOS:       rd.lsos(b.Thread, ctx),
	}, nil
}

// SecondPass implements core.Lifeguard: GEN-SIDE-IN is the union (the meet for
// reaching definitions) of the wings' GEN-SIDE-OUT; IN_{l,t,i} =
// GEN-SIDE-IN ∪ LSOS_{l,t,i}.
func (rd *ReachingDefs) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	gsi := sets.NewSet()
	for _, w := range wings {
		gsi.AddAll(rdSum(w).GenSideOut)
	}
	lsos := rd.lsos(b.Thread, ctx)
	blkIN := gsi.Union(lsos)
	var reports []core.Report
	var recIN []sets.Set
	effects := rd.U.BlockDefEffects(b)
	for i := range b.Events {
		in := gsi.Union(lsos)
		if rd.Record {
			recIN = append(recIN, in)
		}
		if rd.Check != nil {
			reports = append(reports, rd.Check(b, i, in)...)
		}
		// Advance the LSOS: LSOS_{l,t,k} = GEN ∪ (LSOS_{l,t,k−1} − KILL).
		if effects[i].Kill != nil {
			lsos.RemoveAll(effects[i].Kill)
		}
		if effects[i].Gen != nil {
			lsos.AddAll(effects[i].Gen)
		}
	}
	if rd.Record {
		if rd.recordings == nil {
			rd.recordings = map[trace.Ref]*RDRecord{}
		}
		// OUT_{l,t} = GEN_{l,t} ∪ (IN_{l,t} − KILL_{l,t}) (§5.1.3).
		blk := BlockSummary(effects)
		out := blk.Gen.Union(blkIN.Difference(blk.Kill))
		rd.recordings[b.Ref(0)] = &RDRecord{IN: recIN, BlkIN: blkIN, Out: out}
	}
	return reports
}

// RDRecord holds recorded pass-2 results of one block: the IN set before
// each instruction, the block-level IN, and the block-level OUT
// (GEN ∪ (IN − KILL)).
type RDRecord struct {
	IN    []sets.Set
	BlkIN sets.Set
	Out   sets.Set
}

// Recording returns the recorded pass-2 results for block (l, t), or nil if
// recording was off or the block was not analyzed.
func (rd *ReachingDefs) Recording(l int, t trace.ThreadID) *RDRecord {
	return rd.recordings[trace.Ref{Epoch: l, Thread: t, Index: 0}]
}

// UpdateSOS implements core.Lifeguard per §5.1.1–5.1.2:
//
//	GENₗ  = ⋃ₜ GEN_{l,t}
//	KILLₗ = ⋃ₜ (KILL_{l,t} ∩ ⋂_{t'≠t}(KILL_{(l−1,l),t'} ∪ NOT-GEN_{(l−1,l),t'}))
//	SOS'  = GENₗ ∪ (SOS − KILLₗ)
//
// where KILL_{(l−1,l),t} = (KILL_{l−1,t} − GEN_{l,t}) ∪ KILL_{l,t} and
// NOT-GEN is evaluated as a predicate (it is co-finite). The inner
// combination is per-thread (kill ∪ not-gen), required of *every* other
// thread, matching the prose of §5.1.1 and the Lemma 5.1 proof.
func (rd *ReachingDefs) UpdateSOS(prev, _ core.State, prevEpoch, curEpoch []core.Summary) core.State {
	sos := prev.(sets.Set)
	genL := sets.NewSet()
	for _, s := range curEpoch {
		genL.AddAll(rdSum(s).Gen)
	}
	killL := rd.epochKill(prevEpoch, curEpoch)
	out := genL.Union(sos.Difference(killL))
	return out
}

// epochKill computes KILLₗ.
func (rd *ReachingDefs) epochKill(prevEpoch, curEpoch []core.Summary) sets.Set {
	killL := sets.NewSet()
	T := len(curEpoch)
	get := func(row []core.Summary, t int) *RDSummary {
		if row == nil {
			return nil
		}
		return rdSum(row[t])
	}
	for t := 0; t < T; t++ {
		st := rdSum(curEpoch[t])
		for d := range st.Kill {
			if killL.Has(d) {
				continue
			}
			ok := true
			for tt := 0; tt < T; tt++ {
				if tt == t {
					continue
				}
				cur := rdSum(curEpoch[tt])
				prev := get(prevEpoch, tt)
				// KILL_{(l−1,l),t'} = (KILL_{l−1,t'} − GEN_{l,t'}) ∪ KILL_{l,t'}
				killed := cur.Kill.Has(d) ||
					(prev != nil && prev.Kill.Has(d) && !cur.Gen.Has(d))
				// NOT-GEN_{(l−1,l),t'}: not generated in either epoch.
				notGen := !cur.Gen.Has(d) && (prev == nil || !prev.Gen.Has(d))
				if !killed && !notGen {
					ok = false
					break
				}
			}
			if ok {
				killL.Add(d)
			}
		}
	}
	return killL
}

// EpochGenKill exposes GENₗ/KILLₗ for tests and derived lifeguards.
func (rd *ReachingDefs) EpochGenKill(prevEpoch, curEpoch []core.Summary) (gen, kill sets.Set) {
	gen = sets.NewSet()
	for _, s := range curEpoch {
		gen.AddAll(rdSum(s).Gen)
	}
	return gen, rd.epochKill(prevEpoch, curEpoch)
}
