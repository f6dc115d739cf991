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
	"fmt"

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
}

// New returns a heap-only AddrCheck that ignores addresses below filterBelow.
func New(filterBelow uint64) *Butterfly {
	return &Butterfly{FilterBelow: filterBelow}
}

// Name implements core.Lifeguard.
func (a *Butterfly) Name() string { return "addrcheck" }

// BottomState implements core.Lifeguard: nothing is allocated initially.
func (a *Butterfly) BottomState() core.State { return sets.NewIntervalSet() }

// StateSize implements core.StateSizer: the number of disjoint allocated
// intervals in the SOS (its metadata footprint, not its byte coverage).
func (a *Butterfly) StateSize(s core.State) int { return s.(*sets.IntervalSet).NumIntervals() }

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
func genKill(s core.Summary) (gen, kill *sets.IntervalSet) {
	ss := s.(*Summary)
	return ss.Gen, ss.Kill
}

// lsos opens LSOS_{l,t} (the reaching-expressions form, §5.2.1, over
// intervals) as a view over the SOS: head allocations survive unless another
// thread freed those bytes in epoch l−2; SOS bytes survive unless the head
// freed them. The view is pooled; callers release it with sets.PutOverlay.
func (a *Butterfly) lsos(t trace.ThreadID, ctx core.PassContext) *sets.Overlay {
	return lifeguard.IntervalLSOS(t, ctx, genKill)
}

// FirstPass implements core.Lifeguard: build the block summary and run the
// traditional per-instruction checks against the LSOS, updating the view as
// it goes (LSOS_{l,t,k} = GEN ∪ (LSOS_{l,t,k−1} − KILL)); the SOS under it
// is only read.
func (a *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := getSummary()
	lsos := a.lsos(b.Thread, ctx)
	defer sets.PutOverlay(lsos)
	var reports []core.Report
	flag := func(i int, code, detail string) {
		reports = append(reports, core.Report{Ref: b.Ref(i), Ev: b.Events[i], Code: code, Detail: detail})
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
				flag(i, CodeUnallocAccess, fmt.Sprintf("%v of [%#x,%#x) not within allocated memory", e.Kind, lo, hi))
			}
		case trace.Alloc:
			if lsos.OverlapsRange(lo, hi) {
				flag(i, CodeDoubleAlloc, fmt.Sprintf("allocation of [%#x,%#x) overlaps allocated memory", lo, hi))
			}
			lsos.AddRange(lo, hi)
			s.Gen.AddRange(lo, hi)
			s.Kill.RemoveRange(lo, hi)
			s.GenAny.AddRange(lo, hi)
		case trace.Free:
			if !lsos.ContainsRange(lo, hi) {
				flag(i, CodeUnallocFree, fmt.Sprintf("free of [%#x,%#x) not within allocated memory", lo, hi))
			}
			lsos.RemoveRange(lo, hi)
			s.Kill.AddRange(lo, hi)
			s.Gen.RemoveRange(lo, hi)
			s.KillAny.AddRange(lo, hi)
		}
	}
	return s, reports
}

// wingAgg is AddrCheck's driver-maintained wing aggregate (the SIDE-IN
// fold): the union of the covered blocks' metadata changes and accesses.
type wingAgg struct {
	changes, access *sets.IntervalSet
}

var _ core.WingAggregator = (*Butterfly)(nil)

// EmptyWings implements core.WingAggregator. The identity fold comes from
// the wing pool like every other fold: the driver hands it back through
// Recycle with the rest of the aggregate row.
func (a *Butterfly) EmptyWings() any {
	return getWingAgg()
}

// AddWing implements core.WingAggregator. The result comes from the wing
// pool; the driver hands dead folds back through Recycle.
func (a *Butterfly) AddWing(agg any, s core.Summary) any {
	w, ss := agg.(*wingAgg), sum(s)
	out := getWingAgg()
	out.changes.CopyFrom(w.changes)
	out.access.CopyFrom(w.access)
	out.changes.UnionInPlace(ss.GenAny)
	out.changes.UnionInPlace(ss.KillAny)
	out.access.UnionInPlace(ss.Access)
	return out
}

// MergeWings implements core.WingAggregator.
func (a *Butterfly) MergeWings(x, y any) any {
	wx, wy := x.(*wingAgg), y.(*wingAgg)
	out := getWingAgg()
	out.changes.CopyFrom(wx.changes)
	out.access.CopyFrom(wx.access)
	out.changes.UnionInPlace(wy.changes)
	out.access.UnionInPlace(wy.access)
	return out
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
	// overlap against a union is overlap against any member, so with
	// driver-folded aggregates each query probes the ≤3 window rows
	// directly and no per-body union is materialized at all.
	var aggs [3]*wingAgg
	nagg, live := 0, false
	var tmp *wingAgg
	if ctx.WingAggs[1] != nil {
		for _, agg := range ctx.WingAggs {
			if agg == nil {
				continue
			}
			w := agg.(*wingAgg)
			aggs[nagg] = w
			nagg++
			live = live || !w.changes.Empty() || !w.access.Empty()
		}
	} else {
		tmp = getWingAgg()
		defer putWingAgg(tmp)
		for _, ws := range wings {
			s := sum(ws)
			tmp.changes.UnionInPlace(s.GenAny)
			tmp.changes.UnionInPlace(s.KillAny)
			tmp.access.UnionInPlace(s.Access)
		}
		aggs[0], nagg = tmp, 1
		live = !tmp.changes.Empty() || !tmp.access.Empty()
	}
	if !live {
		return nil
	}
	changed := func(lo, hi uint64) bool {
		for _, w := range aggs[:nagg] {
			if w.changes.OverlapsRange(lo, hi) {
				return true
			}
		}
		return false
	}
	accessed := func(lo, hi uint64) bool {
		for _, w := range aggs[:nagg] {
			if w.access.OverlapsRange(lo, hi) {
				return true
			}
		}
		return false
	}
	var reports []core.Report
	for i, e := range b.Events {
		if !a.relevant(e) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		switch e.Kind {
		case trace.Read, trace.Write:
			if changed(lo, hi) {
				reports = append(reports, core.Report{
					Ref: b.Ref(i), Ev: e, Code: CodeIsolation,
					Detail: fmt.Sprintf("%v of [%#x,%#x) concurrent with an allocation-state change", e.Kind, lo, hi),
				})
			}
		case trace.Alloc, trace.Free:
			if changed(lo, hi) || accessed(lo, hi) {
				reports = append(reports, core.Report{
					Ref: b.Ref(i), Ev: e, Code: CodeIsolation,
					Detail: fmt.Sprintf("%v of [%#x,%#x) concurrent with a conflicting operation", e.Kind, lo, hi),
				})
			}
		}
	}
	return reports
}

// UpdateSOS implements core.Lifeguard with the reaching-expressions epoch
// summary (§5.2) over intervals: a byte allocated by thread t survives every
// interleaving only if no other thread's net effect can deallocate it.
func (a *Butterfly) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	return lifeguard.IntervalUpdateSOS(prev, prevEpoch, curEpoch, genKill)
}
