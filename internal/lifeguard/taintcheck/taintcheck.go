// Package taintcheck implements the TaintCheck security lifeguard — the
// paper's §6.2 instantiation of butterfly reaching definitions — plus its
// sequential oracle.
//
// TaintCheck tracks the propagation of taint from untrusted inputs and
// raises an error when tainted data reaches a critical use (an indirect jump
// target, a format string, ...). The butterfly adaptation stores metadata as
// *transfer functions* between SSA-like instruction names (x_{l,t,i} ← s,
// s ∈ {⊥, ⊤, {a}, {a,b}}) because a thread cannot know the taint status of a
// shared location written concurrently: the status is resolved lazily by the
// Check algorithm (Algorithm 1), which chases parents through the wings'
// transfer functions under a termination condition — per-thread descending
// counters under sequential consistency, or cycle prevention under relaxed
// memory models. Resolution is split into two phases (Lemma 6.3) to avoid
// concluding taint through orderings that violate the butterfly assumptions
// (e.g. an epoch-3 taint flowing backwards through an epoch-1 assignment).
package taintcheck

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// CodeTaintedUse flags a critical use of tainted data.
const CodeTaintedUse = "taintcheck.tainted-critical-use"

// Status is the resolved taint of a location or instruction: the lattice
// {⊥ = tainted, ⊤ = untainted}, with unknown used internally before
// resolution.
type Status uint8

// Taint lattice values.
const (
	Unknown Status = iota
	Top            // ⊤: untainted
	Bot            // ⊥: tainted
)

func (s Status) String() string {
	switch s {
	case Top:
		return "⊤"
	case Bot:
		return "⊥"
	default:
		return "?"
	}
}

// merge combines statuses conservatively: ⊥ wins.
func merge(a, b Status) Status {
	if a == Bot || b == Bot {
		return Bot
	}
	if a == Top || b == Top {
		return Top
	}
	return Unknown
}

// tfnKind distinguishes the right-hand sides of transfer functions.
type tfnKind uint8

const (
	tfnTaint   tfnKind = iota // x ← ⊥
	tfnUntaint                // x ← ⊤
	tfnUnop                   // x ← {a}
	tfnBinop                  // x ← {a, b}
)

// tfn is one transfer function x_{l,t,i} ← s.
type tfn struct {
	idx  int // instruction index within the block
	ref  trace.Ref
	loc  uint64 // destination x
	kind tfnKind
	srcs [2]uint64
}

func (f *tfn) sources() []uint64 {
	switch f.kind {
	case tfnUnop:
		return f.srcs[:1]
	case tfnBinop:
		return f.srcs[:2]
	}
	return nil
}

// Summary is TaintCheck's per-block summary: the block's transfer functions
// indexed by destination, plus the LASTCHECK conclusions filled in during
// the second pass (consumed by the SOS update).
type Summary struct {
	epoch  int
	thread trace.ThreadID
	// writes maps each destination location to its transfer functions in
	// block order.
	writes map[uint64][]*tfn
	// lastCheck is LASTCHECK(x, l, t): the resolved status of the last
	// write to x in this block; locations the block never writes are absent
	// (∅). Written during this block's second pass, read afterwards by
	// UpdateSOS and later LSOS computations — never concurrently.
	lastCheck map[uint64]Status
}

// span returns LASTCHECK(x, (l−1, l), t): the conclusion of the last check
// spanning the previous block (head) and this block.
func span(head, cur *Summary, x uint64) Status {
	if cur != nil {
		if s, ok := cur.lastCheck[x]; ok {
			return s
		}
	}
	if head != nil {
		if s, ok := head.lastCheck[x]; ok {
			return s
		}
	}
	return Unknown // ∅
}

// Butterfly is the butterfly-analysis TaintCheck lifeguard.
type Butterfly struct {
	// SC selects the sequentially-consistent termination condition for the
	// Check algorithm (per-thread descending counters). When false the
	// relaxed-model condition is used (a parent may never be replaced by
	// itself), which is more conservative.
	SC bool
	// TwoPhase enables the two-phase resolution of §6.2 ("Reducing False
	// Positives"): phase 1 resolves through epochs l−1 and l, phase 2
	// through l and l+1, with phase-1 taint persisting. Disabling it
	// resolves through all three epochs at once — sound but with more
	// false positives (used as an ablation).
	TwoPhase bool
	// MaxSteps bounds the work of one Check invocation; on exhaustion the
	// check conservatively returns ⊥. Zero means the default (4096).
	MaxSteps int
}

var _ core.Lifeguard = (*Butterfly)(nil)

// New returns a TaintCheck with the paper's default configuration:
// sequentially consistent termination and two-phase resolution.
func New() *Butterfly { return &Butterfly{SC: true, TwoPhase: true} }

// NewRelaxed returns a TaintCheck for relaxed memory models.
func NewRelaxed() *Butterfly { return &Butterfly{SC: false, TwoPhase: true} }

// Name implements core.Lifeguard.
func (tc *Butterfly) Name() string { return "taintcheck" }

// BottomState implements core.Lifeguard: nothing is tainted initially.
func (tc *Butterfly) BottomState() core.State { return sets.NewSet() }

// StateSize implements core.StateSizer: the number of tainted locations in
// the SOS.
func (tc *Butterfly) StateSize(s core.State) int { return s.(sets.Set).Len() }

func sum(s core.Summary) *Summary {
	if s == nil {
		return nil
	}
	return s.(*Summary)
}

// FirstPass implements core.Lifeguard: collect the block's transfer
// functions. Checks are deferred to the second pass, where the head's
// LASTCHECK conclusions and the wings' functions are available.
func (tc *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := getSummary()
	s.epoch, s.thread = b.Epoch, b.Thread
	add := func(i int, loc uint64, kind tfnKind, srcs [2]uint64) {
		f := getTfn()
		f.idx, f.ref, f.loc, f.kind, f.srcs = i, b.Ref(i), loc, kind, srcs
		s.writes[loc] = append(s.writes[loc], f)
	}
	for i, e := range b.Events {
		switch e.Kind {
		case trace.TaintSrc:
			for a := e.Lo(); a < e.Hi(); a++ {
				add(i, a, tfnTaint, [2]uint64{})
			}
		case trace.Untaint:
			add(i, e.Addr, tfnUntaint, [2]uint64{})
		case trace.AssignUn:
			add(i, e.Addr, tfnUnop, [2]uint64{e.Src1})
		case trace.AssignBin:
			add(i, e.Addr, tfnBinop, [2]uint64{e.Src1, e.Src2})
		case trace.Write:
			// A plain store writes untrusted-independent data of unknown
			// provenance; the canonical TaintCheck treats it as untainting
			// (a constant/register write). Loads/Jumps are uses, not defs.
			add(i, e.Addr, tfnUntaint, [2]uint64{})
		}
	}
	return s, nil
}

// lsos computes the set of addresses believed tainted at the start of block
// (l, t): the reaching-definitions LSOS (§5.1.2) instantiated with
// LASTCHECK-derived GEN/KILL:
//
//	GEN_{l−1,t}  = {x : LASTCHECK(x, l−1, t) = ⊥}
//	KILL_{l−1,t} = {x : LASTCHECK(x, l−1, t) = ⊤}
//	LSOS = GEN_{l−1,t} ∪ (SOSₗ − KILL_{l−1,t})
//	     ∪ {x ∈ SOSₗ ∩ KILL_{l−1,t} : ∃t'≠t, LASTCHECK(x, l−2, t') = ⊥}
func (tc *Butterfly) lsos(t trace.ThreadID, ctx core.PassContext) sets.Set {
	sos := ctx.SOS.(sets.Set)
	head := sum(ctx.Head)
	if head == nil {
		return sos.Clone()
	}
	out := sets.NewSet()
	for x, st := range head.lastCheck {
		if st == Bot {
			out.Add(x)
		}
	}
	for x := range sos {
		st, killed := head.lastCheck[x]
		if !killed || st != Top {
			out.Add(x)
			continue
		}
		// Head untainted x, but an epoch l−2 taint in another thread may
		// interleave after the head's untaint.
		for tt, s2 := range ctx.Epoch2Back {
			if trace.ThreadID(tt) == t || s2 == nil {
				continue
			}
			if st2, ok := sum(s2).lastCheck[x]; ok && st2 == Bot {
				out.Add(x)
				break
			}
		}
	}
	return out
}

// SecondPass implements core.Lifeguard: walk the block, resolving each
// write's taint with the Check algorithm and flagging tainted critical uses.
// The block's LASTCHECK conclusions are recorded in its own summary.
func (tc *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	own := sum(ctx.Own)
	r := &resolver{
		tc:   tc,
		body: own,
		head: sum(ctx.Head),
		lsos: tc.lsos(b.Thread, ctx),
	}
	for _, w := range wings {
		r.wings = append(r.wings, sum(w))
	}

	var reports []core.Report
	local := map[uint64]Status{} // resolved status of locally written locs
	for i, e := range b.Events {
		switch e.Kind {
		case trace.TaintSrc:
			for a := e.Lo(); a < e.Hi(); a++ {
				local[a] = Bot
			}
		case trace.Untaint, trace.Write:
			// The value written is untainted (a constant or register value
			// of untainted provenance). Concurrent wing taint of the same
			// location is accounted for at use sites, and cross-thread
			// interference with this conclusion is handled by the
			// ∀t' guard in the KILLₗ formula.
			local[e.Addr] = Top
		case trace.AssignUn:
			local[e.Addr] = r.resolveUse(e.Src1, i, local)
		case trace.AssignBin:
			local[e.Addr] = merge(
				r.resolveUse(e.Src1, i, local),
				r.resolveUse(e.Src2, i, local))
		case trace.Jump:
			if r.resolveUse(e.Addr, i, local) == Bot {
				reports = append(reports, core.Report{
					Ref: b.Ref(i), Ev: e, Code: CodeTaintedUse,
					Detail: fmt.Sprintf("value at %#x may be tainted at a critical use", e.Addr),
				})
			}
		}
	}
	for x, st := range local {
		own.lastCheck[x] = st
	}
	return reports
}

// UpdateSOS implements core.Lifeguard with LASTCHECK-derived epoch
// summaries (§6.2, "SOS and LSOS"):
//
//	GENₗ  = ⋃ₜ {x : LASTCHECK(x, l, t) = ⊥}
//	KILLₗ = ⋃ₜ {x : LASTCHECK(x, l, t) = ⊤ ∧
//	             ∀t'≠t, LASTCHECK(x, (l−1,l), t') ∈ {⊤, ∅}}
//	SOS'  = GENₗ ∪ (SOS − KILLₗ)
func (tc *Butterfly) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	sos := prev.(sets.Set)
	gen := sets.NewSet()
	kill := sets.NewSet()
	T := len(curEpoch)
	for t := 0; t < T; t++ {
		st := sum(curEpoch[t])
		for x, s := range st.lastCheck {
			if s == Bot {
				gen.Add(x)
				continue
			}
			if s != Top {
				continue
			}
			ok := true
			for tt := 0; tt < T; tt++ {
				if tt == t {
					continue
				}
				var head *Summary
				if prevEpoch != nil {
					head = sum(prevEpoch[tt])
				}
				if sp := span(head, sum(curEpoch[tt]), x); sp == Bot {
					ok = false
					break
				}
			}
			if ok {
				kill.Add(x)
			}
		}
	}
	return gen.Union(sos.Difference(kill))
}
