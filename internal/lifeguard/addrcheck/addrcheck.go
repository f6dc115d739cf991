// Package addrcheck implements the AddrCheck memory-checking lifeguard —
// the paper's §6.1 instantiation of butterfly reaching expressions — plus
// its sequential oracle.
//
// AddrCheck verifies that every memory access touches allocated memory,
// every free targets allocated memory, and every allocation targets
// unallocated memory. In the butterfly adaptation, allocations play the role
// of GEN and deallocations of KILL over *byte intervals*. The checking
// algorithm has two parts: per-instruction checks against the LSOS (does the
// address appear allocated within this thread's strongly ordered view?) and
// an isolation check against the wings (was any allocation state change
// concurrent with a conflicting operation? — "a race on the metadata
// state"). Flagging is conservative: every true error is reported
// (Theorem 6.1), at the cost of false positives when safe allocation
// hand-offs land in adjacent epochs (Figure 9).
package addrcheck

import (
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Report codes produced by AddrCheck.
const (
	// CodeUnallocAccess flags a read or write to memory that does not
	// appear allocated.
	CodeUnallocAccess = "addrcheck.unallocated-access"
	// CodeUnallocFree flags a free of memory that does not appear allocated.
	CodeUnallocFree = "addrcheck.unallocated-free"
	// CodeDoubleAlloc flags an allocation of memory that appears allocated.
	CodeDoubleAlloc = "addrcheck.double-alloc"
	// CodeIsolation flags an operation that conflicts with a concurrent
	// allocation-state change in the wings (metadata race).
	CodeIsolation = "addrcheck.concurrent-metadata-change"
)

// Butterfly is the butterfly-analysis AddrCheck lifeguard. It implements
// core.Lifeguard with interval-set state.
type Butterfly struct {
	// FilterBelow ignores events whose address range lies entirely below
	// this bound — the paper's heap-only configuration filters stack
	// accesses. Zero monitors everything.
	FilterBelow uint64
}

var _ core.Lifeguard = (*Butterfly)(nil)

// Summary is AddrCheck's first-pass block summary.
type Summary struct {
	// Gen and Kill are the sequential reaching-expressions block summary
	// over bytes: Gen = allocated and still allocated at block end; Kill =
	// freed and not reallocated.
	Gen, Kill *sets.IntervalSet
	// GenAny and KillAny are bytes allocated/freed *anywhere* in the block:
	// the wings may interleave with any internal position, so isolation
	// must consider every metadata change.
	GenAny, KillAny *sets.IntervalSet
	// Access is every byte read or written by the block.
	Access *sets.IntervalSet

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
			GenAny:  new(sets.IntervalSet),
			KillAny: new(sets.IntervalSet),
			Access:  new(sets.IntervalSet),
			scratch: sc,
		}
	}
	s.Gen.Reset()
	s.Kill.Reset()
	s.GenAny.Reset()
	s.KillAny.Reset()
	s.Access.Reset()
	return s
}

// New returns a heap-only AddrCheck that ignores addresses below filterBelow.
func New(filterBelow uint64) *Butterfly {
	return &Butterfly{FilterBelow: filterBelow}
}

// Name implements core.Lifeguard.
func (a *Butterfly) Name() string { return "addrcheck" }

// BottomState implements core.Lifeguard: nothing is allocated initially.
func (a *Butterfly) BottomState() core.State { return new(lifeguard.IntervalSOS) }

// StateSize implements core.StateSizer: the number of disjoint allocated
// intervals in the SOS (its metadata footprint, not its byte coverage).
func (a *Butterfly) StateSize(s core.State) int {
	return s.(*lifeguard.IntervalSOS).Set().NumIntervals()
}

// relevant reports whether AddrCheck monitors this event.
func (a *Butterfly) relevant(e trace.Event) bool {
	switch e.Kind {
	case trace.Read, trace.Write, trace.Alloc, trace.Free:
		return e.Hi() > a.FilterBelow
	}
	return false
}

func sum(s core.Summary) *Summary {
	if s == nil {
		return nil
	}
	return s.(*Summary)
}

// genKill is AddrCheck's lifeguard.GenKill accessor.
func genKill(s core.Summary) (gen, kill *sets.IntervalSet, scratch *lifeguard.IntervalScratch) {
	ss := s.(*Summary)
	if ss.scratch != nil { // nil in a summary no first pass built
		scratch = &ss.scratch.sets
	}
	return ss.Gen, ss.Kill, scratch
}

// FirstPass implements core.Lifeguard: build the block summary and run the
// traditional per-instruction checks against LSOS_{l,t} (the
// reaching-expressions form, §5.2.1, over intervals: head allocations
// survive unless another thread freed those bytes in epoch l−2, SOS bytes
// unless the head freed them), a view over the SOS updated as the pass goes
// (LSOS_{l,t,k} = GEN ∪ (LSOS_{l,t,k−1} − KILL)); the SOS under it is only
// read.
func (a *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := summaryFor(ctx)
	lsos := lifeguard.IntervalLSOS(b.Thread, ctx, s, genKill)
	details := &s.scratch.details
	// flag reports event i under code, with the detail just written.
	flag := func(i int, code string) {
		details.Report(core.Report{Ref: b.Ref(i), Ev: b.Events[i], Code: code})
	}
	for i, e := range b.Events {
		if !a.relevant(e) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		switch e.Kind {
		case trace.Read, trace.Write:
			s.Access.AddRange(lo, hi)
			if !lsos.ContainsRange(lo, hi) {
				details.Str(e.Kind.String()).Str(" of ").Range(lo, hi).Str(" not within allocated memory")
				flag(i, CodeUnallocAccess)
			}
		case trace.Alloc:
			if lsos.OverlapsRange(lo, hi) {
				details.Str("allocation of ").Range(lo, hi).Str(" overlaps allocated memory")
				flag(i, CodeDoubleAlloc)
			}
			lsos.AddRange(lo, hi)
			s.Gen.AddRange(lo, hi)
			s.Kill.RemoveRange(lo, hi)
			s.GenAny.AddRange(lo, hi)
		case trace.Free:
			if !lsos.ContainsRange(lo, hi) {
				details.Str("free of ").Range(lo, hi).Str(" not within allocated memory")
				flag(i, CodeUnallocFree)
			}
			lsos.RemoveRange(lo, hi)
			s.Kill.AddRange(lo, hi)
			s.Gen.RemoveRange(lo, hi)
			s.KillAny.AddRange(lo, hi)
		}
	}
	return s, details.Finish()
}

var _ core.WingAggregator = (*Butterfly)(nil)

// EmptyWings implements core.WingAggregator: a row's fold (the SIDE-IN
// meet before a body leaves its own thread out) is the union of its
// blocks' metadata changes, GenAny and KillAny, each run tagged with the
// thread it came from. Accesses are not folded: only a body's allocations
// and frees ask about wing accesses, and they probe the wing summaries'
// Access sets directly.
func (a *Butterfly) EmptyWings() any { return new(sets.RowUnion) }

// FoldRow implements core.WingAggregator: it returns the runs written.
func (a *Butterfly) FoldRow(dst any, row []core.Summary) int {
	u := dst.(*sets.RowUnion)
	for t, s := range row {
		ss := sum(s)
		u.Add(t, ss.GenAny)
		u.Add(t, ss.KillAny)
	}
	return u.Build()
}

// SecondPass implements core.Lifeguard: the isolation check. With s the
// body's summary and S the union of the wings', the paper flags
//
//	((s.GEN ∪ s.KILL) ∩ (S.GEN ∪ S.KILL)) ∪
//	(s.ACCESS ∩ (S.GEN ∪ S.KILL)) ∪ (S.ACCESS ∩ (s.GEN ∪ s.KILL))
//
// We attribute each element of this set to the body instructions that touch
// it; the S.ACCESS ∩ s-changes term flags the body's allocs/frees (the wing
// access is flagged symmetrically when its own block is the body).
func (a *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	// The checks only ever ask "does [lo,hi) overlap the wing union?" —
	// overlap against a union is overlap against any member, so each change
	// query probes the ≤3 window rows' folds directly, leaving out the
	// body's own thread by the runs' owners, and no per-body union is
	// materialized at all. A row with no changes is left out: heaps
	// allocated once leave every row's changes empty. A caller that folds
	// nothing (a reference walk) gets every wing summary probed directly.
	t := int(b.Thread)
	var chg [3]*sets.RowUnion
	n := 0
	for _, agg := range ctx.WingAggs {
		if u, _ := agg.(*sets.RowUnion); u != nil && !u.Empty() {
			chg[n] = u
			n++
		}
	}
	naive := wings
	if ctx.WingAggs[1] != nil {
		naive = nil
	}
	// changed reports whether [lo, hi) meets a wing's allocation or free.
	changed := func(lo, hi uint64) bool {
		for _, u := range chg[:n] {
			if u.OverlapsOther(t, lo, hi) {
				return true
			}
		}
		for _, w := range naive {
			if s := sum(w); s.GenAny.OverlapsRange(lo, hi) || s.KillAny.OverlapsRange(lo, hi) {
				return true
			}
		}
		return false
	}
	// accessed reports whether [lo, hi) meets a wing's read or write.
	accessed := func(lo, hi uint64) bool {
		for _, w := range wings {
			if sum(w).Access.OverlapsRange(lo, hi) {
				return true
			}
		}
		return false
	}
	// Without wing changes only the body's own allocations and frees can
	// be flagged.
	if n+len(naive) == 0 && sum(ctx.Own).GenAny.Empty() && sum(ctx.Own).KillAny.Empty() {
		return nil
	}
	details := &sum(ctx.Own).scratch.details
	for i, e := range b.Events {
		if !a.relevant(e) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		switch e.Kind {
		case trace.Read, trace.Write:
			if !changed(lo, hi) {
				continue
			}
			details.Str(e.Kind.String()).Str(" of ").Range(lo, hi).Str(" concurrent with an allocation-state change")
		case trace.Alloc, trace.Free:
			if !changed(lo, hi) && !accessed(lo, hi) {
				continue
			}
			details.Str(e.Kind.String()).Str(" of ").Range(lo, hi).Str(" concurrent with a conflicting operation")
		default:
			continue
		}
		details.Report(core.Report{Ref: b.Ref(i), Ev: e, Code: CodeIsolation})
	}
	return details.Finish()
}

// UpdateSOS implements core.Lifeguard with the reaching-expressions epoch
// summary (§5.2) over intervals: a byte allocated by thread t survives every
// interleaving only if no other thread's net effect can deallocate it.
func (a *Butterfly) UpdateSOS(prev, dead core.State, prevEpoch, curEpoch []core.Summary) core.State {
	return lifeguard.IntervalUpdateSOS(prev, dead, prevEpoch, curEpoch, genKill)
}
