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
//
// Representation (DESIGN.md §12): a block summary holds its transfer
// functions by value in one slice sorted by (destination, index) and its
// LASTCHECK conclusions as a sorted (location, status) vector, both looked
// up by sets.Search behind a per-block bit filter. An SOS generation is
// an immutable sorted []uint64, written once by UpdateSOS in a single
// linear merge of the previous generation with the epoch's LASTCHECK
// vectors; the LSOS is a view that answers each query from the head's
// LASTCHECK, the generation and epoch l−2, never a copy. The resolver's SC
// counters are a per-thread position array set and restored along the
// depth-first search, and its relaxed path a small stack. Summaries,
// generations and resolvers are pooled and report details are interned by
// address, so a warm epoch allocates nothing. Only the sequential oracle
// keeps a map-backed set; the one map outside it is that detail cache.
package taintcheck

import (
	"cmp"
	"slices"
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
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

// tfn is one transfer function x_{l,t,i} ← s, held by value in its block's
// summary.
type tfn struct {
	loc  uint64 // destination x
	srcs [2]uint64
	idx  int // instruction index within the block
	kind tfnKind
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
// sorted by (destination, index), plus the LASTCHECK conclusions filled in
// during the second pass (consumed by the SOS update and later LSOS views).
// Every lookup is a sets.Search over locs, behind a bit filter that
// answers most misses (a wing that never writes x) with one load.
type Summary struct {
	epoch  int
	thread trace.ThreadID
	// tfns holds every transfer function of the block, sorted by (loc,
	// idx): the functions writing one location are a contiguous run in
	// block order.
	tfns []tfn
	// locs lists the locations the block writes, sorted; runs[i] is where
	// locs[i]'s run starts in tfns (runs[len(locs)] = len(tfns)).
	locs []uint64
	runs []int32
	// last[i] is LASTCHECK(locs[i], l, t); locations the block never writes
	// are absent (∅). FirstPass sets every entry Unknown and the block's
	// second pass fills each one in as it walks the block, so until then
	// Unknown means "not written yet". Read afterwards by UpdateSOS and
	// later LSOS views — never concurrently with the writes.
	last []Status
	// filter has bit filterBit(x) set for every x in locs.
	filter [filterWords]uint64
	// reports backs the slice SecondPass returns; the driver copies a
	// pass's reports out before the summary can be recycled.
	reports []core.Report
}

// filterWords sizes the per-block miss filter: 1,024 bits, about a fifth
// set by a block writing 200 locations.
const filterWords = 16

func filterBit(x uint64) uint64 { return (x * 0x9e3779b97f4a7c15) >> (64 - 10) }

// slot returns the index of x in locs, or -1 if the block never writes x.
func (s *Summary) slot(x uint64) int {
	if b := filterBit(x); s.filter[b>>6]&(1<<(b&63)) == 0 {
		return -1
	}
	if i, found := sets.Search(s.locs, x); found {
		return i
	}
	return -1
}

// writes returns the block's transfer functions for x, in block order.
func (s *Summary) writes(x uint64) []tfn {
	i := s.slot(x)
	if i < 0 {
		return nil
	}
	return s.tfns[s.runs[i]:s.runs[i+1]]
}

// status returns LASTCHECK(x) for this block: Unknown (∅) when the block
// never writes x, or has not written it yet during its own second pass.
func (s *Summary) status(x uint64) Status {
	if s == nil {
		return Unknown
	}
	if i := s.slot(x); i >= 0 {
		return s.last[i]
	}
	return Unknown
}

// sos is one SOS generation: the locations believed tainted, an immutable
// sorted slice (nil when empty, so equal generations compare equal whatever
// their history). Each UpdateSOS writes a fresh generation into a recycled
// backing; a dead one returns through Recycle.
type sos struct{ locs []uint64 }

// has reports whether x is in the generation.
func (s *sos) has(x uint64) bool {
	_, found := sets.Search(s.locs, x)
	return found
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

	details detailCache
}

// detailCache interns report details by address. A workload flags the same
// critical use over and over, and whoever keeps its reports (butterflyd
// keeps a session's for replay) then holds one Detail string per address
// rather than one per report; a repeated report costs no allocation.
type detailCache struct {
	mu     sync.Mutex
	byAddr map[uint64]string
}

// fill sets the Detail of each report, a tainted critical use of Ev.Addr.
func (c *detailCache) fill(reports []core.Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byAddr == nil {
		c.byAddr = map[uint64]string{}
	}
	for i := range reports {
		x := reports[i].Ev.Addr
		d, ok := c.byAddr[x]
		if !ok {
			var buf [64]byte
			b := lifeguard.AppendHex(append(buf[:0], "value at "...), x)
			d = string(append(b, " may be tainted at a critical use"...))
			c.byAddr[x] = d
		}
		reports[i].Detail = d
	}
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
func (tc *Butterfly) BottomState() core.State { return &sos{} }

// StateSize implements core.StateSizer: the number of tainted locations in
// the SOS.
func (tc *Butterfly) StateSize(s core.State) int { return len(s.(*sos).locs) }

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
		s.tfns = append(s.tfns, tfn{loc: loc, srcs: srcs, idx: i, kind: kind})
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
	slices.SortFunc(s.tfns, func(a, b tfn) int {
		if c := cmp.Compare(a.loc, b.loc); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for i, f := range s.tfns {
		if i == 0 || f.loc != s.tfns[i-1].loc {
			s.addLoc(f.loc, i)
		}
	}
	s.runs = append(s.runs, int32(len(s.tfns)))
	return s, nil
}

// addLoc appends x, the next location in ascending order, whose run of
// transfer functions starts at tfns[run].
func (s *Summary) addLoc(x uint64, run int) {
	s.locs = append(s.locs, x)
	s.runs = append(s.runs, int32(run))
	s.last = append(s.last, Unknown)
	b := filterBit(x)
	s.filter[b>>6] |= 1 << (b & 63)
}

// SecondPass implements core.Lifeguard: walk the block, resolving each
// write's taint with the Check algorithm and flagging tainted critical uses.
// Each write's conclusion goes straight into the block's own LASTCHECK
// entry, which doubles as the resolved status of locally written locations
// for the uses that follow it.
func (tc *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	own := sum(ctx.Own)
	r := getResolver()
	defer putResolver(r)
	r.start(tc, own, ctx, wings)
	set := func(x uint64, st Status) { own.last[own.slot(x)] = st }

	reports := own.reports[:0]
	for i, e := range b.Events {
		switch e.Kind {
		case trace.TaintSrc:
			for a := e.Lo(); a < e.Hi(); a++ {
				set(a, Bot)
			}
		case trace.Untaint, trace.Write:
			// The value written is untainted (a constant or register value
			// of untainted provenance). Concurrent wing taint of the same
			// location is accounted for at use sites, and cross-thread
			// interference with this conclusion is handled by the
			// ∀t' guard in the KILLₗ formula.
			set(e.Addr, Top)
		case trace.AssignUn:
			set(e.Addr, r.resolveUse(e.Src1, i))
		case trace.AssignBin:
			set(e.Addr, merge(r.resolveUse(e.Src1, i), r.resolveUse(e.Src2, i)))
		case trace.Jump:
			if r.resolveUse(e.Addr, i) == Bot {
				reports = append(reports, core.Report{Ref: b.Ref(i), Ev: e, Code: CodeTaintedUse})
			}
		}
	}
	own.reports = reports
	if len(reports) == 0 {
		return nil
	}
	tc.details.fill(reports)
	return reports
}

// UpdateSOS implements core.Lifeguard with LASTCHECK-derived epoch
// summaries (§6.2, "SOS and LSOS"):
//
//	GENₗ  = ⋃ₜ {x : LASTCHECK(x, l, t) = ⊥}
//	KILLₗ = ⋃ₜ {x : LASTCHECK(x, l, t) = ⊤ ∧
//	             ∀t'≠t, LASTCHECK(x, (l−1,l), t') ∈ {⊤, ∅}}
//	SOS'  = GENₗ ∪ (SOS − KILLₗ)
//
// One linear merge computes it: the T sorted LASTCHECK vectors are walked
// together in location order, and the previous generation is copied across
// into a recycled backing up to each concluded location. A location some
// thread concluded ⊥ is in GENₗ, so no thread concluded ⊥ at a location
// tested for KILLₗ: the ∀t' guard reduces to the threads with no conclusion
// there, whose span is the head's.
func (tc *Butterfly) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	old := prev.(*sos).locs
	next := getSOS()
	out := next.locs[:0]
	var curBuf [16]*Summary
	var atBuf [16]int
	cur, at := curBuf[:0], atBuf[:0] // at[t]: thread t's cursor into its LASTCHECK
	for _, c := range curEpoch {
		cur, at = append(cur, sum(c)), append(at, 0)
	}
	i := 0 // cursor into the previous generation
	for {
		// x: the smallest location a thread still has a conclusion for.
		x, found := uint64(0), false
		for t, s := range cur {
			if at[t] < len(s.locs) && (!found || s.locs[at[t]] < x) {
				x, found = s.locs[at[t]], true
			}
		}
		if !found {
			break
		}
		gen, top := false, false
		for t, s := range cur {
			if at[t] < len(s.locs) && s.locs[at[t]] == x {
				gen = gen || s.last[at[t]] == Bot
				top = top || s.last[at[t]] == Top
				at[t]++
			}
		}
		kill := !gen && top
		for t, s := range cur {
			if !kill {
				break
			}
			if at[t] > 0 && s.locs[at[t]-1] == x {
				continue // concluded x this epoch, and not ⊥
			}
			if prevEpoch != nil && sum(prevEpoch[t]).status(x) == Bot {
				kill = false
			}
		}
		for i < len(old) && old[i] < x {
			out = append(out, old[i])
			i++
		}
		inOld := i < len(old) && old[i] == x
		if inOld {
			i++
		}
		if gen || (inOld && !kill) {
			out = append(out, x)
		}
	}
	out = append(out, old[i:]...)
	if len(out) == 0 {
		out = nil
	}
	next.locs = out
	return next
}
