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

	// scratch is the pass scratch of the block's thread, which no other
	// thread reads.
	scratch *passScratch
}

// passScratch is what a thread's passes work in: the LSOS view and the SOS
// update's sets, and the report builder. A thread runs one pass at a time,
// so all its summaries share one: a new summary takes its head's.
type passScratch struct {
	sets    lifeguard.IntervalScratch
	details lifeguard.Details
}

// summaryFor returns the summary a first pass fills: ctx.Reuse emptied,
// its storage kept, or a new summary when there is none to reuse.
func summaryFor(ctx core.PassContext) *Summary {
	s, _ := ctx.Reuse.(*Summary)
	if s == nil {
		var sc *passScratch
		if head := sum(ctx.Head); head != nil {
			sc = head.scratch
		}
		if sc == nil {
			sc = new(passScratch)
		}
		return &Summary{
			Gen:     new(sets.IntervalSet),
			Kill:    new(sets.IntervalSet),
			KillAny: new(sets.IntervalSet),
			Reads:   new(sets.IntervalSet),
			scratch: sc,
		}
	}
	s.Gen.Reset()
	s.Kill.Reset()
	s.KillAny.Reset()
	s.Reads.Reset()
	return s
}

// New returns a MemCheck ignoring addresses below filterBelow.
func New(filterBelow uint64) *Butterfly { return &Butterfly{FilterBelow: filterBelow} }

// Name implements core.Lifeguard.
func (m *Butterfly) Name() string { return "memcheck" }

// BottomState implements core.Lifeguard: nothing is defined initially.
func (m *Butterfly) BottomState() core.State { return new(lifeguard.IntervalSOS) }

// StateSize implements core.StateSizer: the number of disjoint defined
// intervals in the SOS.
func (m *Butterfly) StateSize(s core.State) int {
	return s.(*lifeguard.IntervalSOS).Set().NumIntervals()
}

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
func genKill(s core.Summary) (gen, kill *sets.IntervalSet, scratch *lifeguard.IntervalScratch) {
	ss := s.(*Summary)
	if ss.scratch != nil { // nil in a summary no first pass built
		scratch = &ss.scratch.sets
	}
	return ss.Gen, ss.Kill, scratch
}

// FirstPass implements core.Lifeguard: build the summary and run the
// per-instruction definedness checks against the defined-bytes LSOS (the
// §5.2 reaching-expressions form), a view over the SOS: head definitions
// survive unless another thread undefined those bytes in epoch l−2, SOS
// bytes unless the head undefined them.
func (m *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := summaryFor(ctx)
	lsos := lifeguard.IntervalLSOS(b.Thread, ctx, s, genKill)
	details := &s.scratch.details
	for i, e := range b.Events {
		if !m.relevant(e) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		switch e.Kind {
		case trace.Read:
			s.Reads.AddRange(lo, hi)
			if !lsos.ContainsRange(lo, hi) {
				details.Str("read of ").Range(lo, hi).Str(" may see uninitialized memory")
				details.Report(core.Report{Ref: b.Ref(i), Ev: e, Code: CodeUndefRead})
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
	return s, details.Finish()
}

var _ core.WingAggregator = (*Butterfly)(nil)

// EmptyWings implements core.WingAggregator: a row's fold is the union of
// its blocks' KillAny, each run tagged with the thread it came from.
func (m *Butterfly) EmptyWings() any { return new(sets.RowUnion) }

// FoldRow implements core.WingAggregator: it returns the runs written.
func (m *Butterfly) FoldRow(dst any, row []core.Summary) int {
	u := dst.(*sets.RowUnion)
	for t, s := range row {
		u.Add(t, sum(s).KillAny)
	}
	return u.Build()
}

// SecondPass implements core.Lifeguard: flag reads racing a definedness
// destruction in the wings. (Wing *writes* only add definedness, which is
// at worst early — like the paper's "tainted early" argument, harmless to
// soundness.) Each read probes the ≤3 window rows' kill unions that hold
// anything, leaving out the body's own thread by the runs' owners; a caller
// that folds nothing (a reference walk) gets every wing's KillAny probed.
func (m *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	t := int(b.Thread)
	var kills [3]*sets.RowUnion
	n := 0
	for _, agg := range ctx.WingAggs {
		if u, _ := agg.(*sets.RowUnion); u != nil && !u.Empty() {
			kills[n] = u
			n++
		}
	}
	if ctx.WingAggs[1] != nil {
		wings = nil
	}
	if n+len(wings) == 0 {
		return nil
	}
	killed := func(lo, hi uint64) bool {
		for _, u := range kills[:n] {
			if u.OverlapsOther(t, lo, hi) {
				return true
			}
		}
		for _, w := range wings {
			if sum(w).KillAny.OverlapsRange(lo, hi) {
				return true
			}
		}
		return false
	}
	details := &sum(ctx.Own).scratch.details
	for i, e := range b.Events {
		if e.Kind != trace.Read || !m.relevant(e) {
			continue
		}
		if killed(e.Lo(), e.Hi()) {
			details.Str("read of ").Range(e.Lo(), e.Hi()).Str(" concurrent with a definedness change")
			details.Report(core.Report{Ref: b.Ref(i), Ev: e, Code: CodeIsolation})
		}
	}
	return details.Finish()
}

// UpdateSOS implements core.Lifeguard with the §5.2 epoch summary over
// intervals (identical shape to AddrCheck's, with definedness facts).
func (m *Butterfly) UpdateSOS(prev, dead core.State, prevEpoch, curEpoch []core.Summary) core.State {
	return lifeguard.IntervalUpdateSOS(prev, dead, prevEpoch, curEpoch, genKill)
}
