// Package memcheck implements a definedness-checking lifeguard in the style
// of Valgrind's Memcheck (the same tool family as the paper's AddrCheck
// citation [26]): it flags reads of memory that may never have been written
// since allocation. The paper positions butterfly analysis as a generic
// framework for lifeguards with a generate/propagate structure (§5, §8);
// this package is the repository's demonstration that a third lifeguard
// drops into the framework unchanged.
//
// Definedness is a reaching-expressions-shaped fact over byte intervals:
// a byte is *defined* at a read only if every valid ordering writes it
// beforehand (and no interleaving can undefine it in between), so
//
//	GEN  = stores (they define bytes)
//	KILL = allocations and frees (fresh memory is undefined; freed memory's
//	       contents are meaningless)
//
// exactly mirroring §5.2 with the roles recast, plus the §6.1-style
// isolation check: a read racing a definedness change in the wings is
// flagged. The adaptation keeps the framework guarantee: any read of
// undefined memory visible under some valid ordering is reported (zero
// false negatives), at the cost of conservative positives near epoch
// boundaries.
package memcheck

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Report codes produced by MemCheck.
const (
	// CodeUndefRead flags a read of bytes that do not appear defined.
	CodeUndefRead = "memcheck.uninitialized-read"
	// CodeIsolation flags a read concurrent with a definedness change.
	CodeIsolation = "memcheck.concurrent-definedness-change"
)

// Butterfly is the butterfly-analysis MemCheck lifeguard.
type Butterfly struct {
	// FilterBelow ignores events whose byte range lies entirely below this
	// bound (heap-only monitoring).
	FilterBelow uint64
}

var _ core.Lifeguard = (*Butterfly)(nil)

// Summary is MemCheck's first-pass block summary.
type Summary struct {
	// Gen and Kill are the sequential block summary over bytes: Gen =
	// defined at block end, Kill = undefined (allocated or freed) and not
	// redefined.
	Gen, Kill *sets.IntervalSet
	// KillAny is every byte whose definedness the block destroys anywhere
	// (exposed to the wings: the destruction may interleave with any body
	// position).
	KillAny *sets.IntervalSet
	// Reads is every byte the block reads (for the isolation check).
	Reads *sets.IntervalSet
}

// New returns a MemCheck ignoring addresses below filterBelow.
func New(filterBelow uint64) *Butterfly { return &Butterfly{FilterBelow: filterBelow} }

// Name implements core.Lifeguard.
func (m *Butterfly) Name() string { return "memcheck" }

// BottomState implements core.Lifeguard: nothing is defined initially.
func (m *Butterfly) BottomState() core.State { return sets.NewIntervalSet() }

// StateSize implements core.StateSizer: the number of disjoint defined
// intervals in the SOS.
func (m *Butterfly) StateSize(s core.State) int { return s.(*sets.IntervalSet).NumIntervals() }

func (m *Butterfly) relevant(e trace.Event) bool {
	switch e.Kind {
	case trace.Read, trace.Write, trace.Alloc, trace.Free:
		return e.Hi() > m.FilterBelow
	}
	return false
}

func sum(s core.Summary) *Summary {
	if s == nil {
		return nil
	}
	return s.(*Summary)
}

// genKill is MemCheck's lifeguard.GenKill accessor.
func genKill(s core.Summary) (gen, kill *sets.IntervalSet) {
	ss := s.(*Summary)
	return ss.Gen, ss.Kill
}

// lsos opens the defined-bytes LSOS (the §5.2 reaching-expressions form) as
// a view over the SOS: head definitions survive unless another thread
// undefined those bytes in epoch l−2; SOS bytes survive unless the head
// undefined them. The view is pooled; callers release it with
// sets.PutOverlay.
func (m *Butterfly) lsos(t trace.ThreadID, ctx core.PassContext) *sets.Overlay {
	return lifeguard.IntervalLSOS(t, ctx, genKill)
}

// FirstPass implements core.Lifeguard: build the summary and run the
// per-instruction definedness checks against the LSOS.
func (m *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := getSummary()
	lsos := m.lsos(b.Thread, ctx)
	defer sets.PutOverlay(lsos)
	var reports []core.Report
	for i, e := range b.Events {
		if !m.relevant(e) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		switch e.Kind {
		case trace.Read:
			s.Reads.AddRange(lo, hi)
			if !lsos.ContainsRange(lo, hi) {
				reports = append(reports, core.Report{
					Ref: b.Ref(i), Ev: e, Code: CodeUndefRead,
					Detail: fmt.Sprintf("read of [%#x,%#x) may see uninitialized memory", lo, hi),
				})
			}
		case trace.Write:
			lsos.AddRange(lo, hi)
			s.Gen.AddRange(lo, hi)
			s.Kill.RemoveRange(lo, hi)
		case trace.Alloc, trace.Free:
			lsos.RemoveRange(lo, hi)
			s.Kill.AddRange(lo, hi)
			s.Gen.RemoveRange(lo, hi)
			s.KillAny.AddRange(lo, hi)
		}
	}
	return s, reports
}

// SecondPass implements core.Lifeguard: flag reads racing a definedness
// destruction in the wings. (Wing *writes* only add definedness, which is
// at worst early — like the paper's "tainted early" argument, harmless to
// soundness.)
func (m *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	wingKills := sets.GetSet()
	defer sets.PutSet(wingKills)
	for _, w := range wings {
		wingKills.UnionInPlace(sum(w).KillAny)
	}
	if wingKills.Empty() {
		return nil
	}
	var reports []core.Report
	for i, e := range b.Events {
		if e.Kind != trace.Read || !m.relevant(e) {
			continue
		}
		if wingKills.OverlapsRange(e.Lo(), e.Hi()) {
			reports = append(reports, core.Report{
				Ref: b.Ref(i), Ev: e, Code: CodeIsolation,
				Detail: fmt.Sprintf("read of [%#x,%#x) concurrent with a definedness change", e.Lo(), e.Hi()),
			})
		}
	}
	return reports
}

// UpdateSOS implements core.Lifeguard with the §5.2 epoch summary over
// intervals (identical shape to AddrCheck's, with definedness facts).
func (m *Butterfly) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	return lifeguard.IntervalUpdateSOS(prev, prevEpoch, curEpoch, genKill)
}
