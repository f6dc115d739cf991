package taintcheck

import (
	"math"
	"slices"

	"butterfly/internal/core"
	"butterfly/internal/trace"
)

// resolver implements the Check algorithm (§6.2, Algorithm 1) for one body
// block: it resolves the taint status of a location at a given body position
// by chasing transfer-function parents through the head, the body itself,
// and the wings, under the configured termination condition.
//
// Phases (§6.2 "Reducing False Positives", Lemma 6.3): a chain may use
// transfer functions from epochs l and l+1 freely; the moment it steps
// through an epoch l−1 function it commits to the "first two epochs"
// (l−1, l) and may never return to l+1. This encodes exactly the lemma's
// three cases — taint via the first two epochs, via the last two, or via a
// predecessor tainted in the first two reached through the last two — and
// rules out impossible orderings such as an epoch l+1 taint flowing through
// an epoch l−1 assignment. With TwoPhase disabled, all three epochs mix
// freely (sound, strictly more false positives; kept as an ablation).
//
// A resolver is scratch of its body block's summary, used by that block's
// second pass: the wing list, the counters and the path keep their backings
// when the summary is reused, so a warm second pass allocates nothing.
type resolver struct {
	tc    *Butterfly
	body  *Summary
	head  *Summary
	wings []*Summary
	// lsos is the set of addresses believed tainted at block entry
	// (strongly ordered past + head conclusions), read as a view.
	lsos lsos
	// bnds[t] is the position thread t's next followed transfer function
	// must strictly precede — the paper's per-thread counters enforcing
	// sequential order within every thread of the reconstructed chain (SC
	// only). Unbounded threads hold noBound. The search sets an entry
	// before it recurses and restores it after.
	bnds []pos
	// path holds the transfer functions on the current chain, so a parent
	// is never replaced by itself (relaxed only).
	path  []trace.Ref
	steps int
}

// Resolution phase of a chain search.
const (
	phaseLate  = 1 // epochs l, l+1 (may still transition to phaseEarly)
	phaseEarly = 2 // epochs l−1, l (committed)
	phaseAll   = 3 // single-phase ablation: epochs l−1..l+1 freely
)

// pos orders instructions for the SC termination counters.
type pos struct{ epoch, idx int }

func (p pos) before(q pos) bool {
	return p.epoch < q.epoch || (p.epoch == q.epoch && p.idx < q.idx)
}

// noBound is the counter of a thread the chain has not visited: every
// position precedes it.
var noBound = pos{epoch: math.MaxInt}

// lsos is the LSOS of one body block (l, t) as a view: the reaching-
// definitions LSOS (§5.1.2) instantiated with LASTCHECK-derived GEN/KILL,
//
//	GEN_{l−1,t}  = {x : LASTCHECK(x, l−1, t) = ⊥}
//	KILL_{l−1,t} = {x : LASTCHECK(x, l−1, t) = ⊤}
//	LSOS = GEN_{l−1,t} ∪ (SOSₗ − KILL_{l−1,t})
//	     ∪ {x ∈ SOSₗ ∩ KILL_{l−1,t} : ∃t'≠t, LASTCHECK(x, l−2, t') = ⊥}
//
// answered per query from the head's LASTCHECK, the SOS generation and
// epoch l−2's summaries, so a block costs nothing for the SOS it does not
// ask about.
type lsos struct {
	sos  *sos
	head *Summary
	// back2 holds epoch l−2's summaries of the other threads, empty before
	// epoch 2.
	back2 []*Summary
}

// Has reports whether x is believed tainted at block entry.
func (v *lsos) Has(x uint64) bool {
	if v.head == nil {
		return v.sos.has(x)
	}
	st := v.head.status(x)
	if st == Bot {
		return true
	}
	if !v.sos.has(x) {
		return false
	}
	if st != Top {
		return true
	}
	// Head untainted x, but an epoch l−2 taint in another thread may
	// interleave after the head's untaint.
	for _, s2 := range v.back2 {
		if s2.status(x) == Bot {
			return true
		}
	}
	return false
}

// start readies the resolver for body's second pass.
func (r *resolver) start(tc *Butterfly, body *Summary, ctx core.PassContext, wings []core.Summary) {
	r.tc, r.body, r.head = tc, body, sum(ctx.Head)
	r.lsos.sos, r.lsos.head = ctx.SOS.(*sos), r.head
	r.lsos.back2 = r.lsos.back2[:0]
	if r.head != nil {
		for tt, s2 := range ctx.Epoch2Back {
			if trace.ThreadID(tt) != body.thread && s2 != nil {
				r.lsos.back2 = append(r.lsos.back2, sum(s2))
			}
		}
	}
	n := int(body.thread) + 1
	r.wings = r.wings[:0]
	for _, w := range wings {
		s := sum(w)
		r.wings = append(r.wings, s)
		n = max(n, int(s.thread)+1)
	}
	r.bnds = slices.Grow(r.bnds[:0], n)[:n]
}

// finish drops the resolver's references to other blocks' summaries, so a
// summary in the window keeps nothing else alive through its resolver.
func (r *resolver) finish() {
	clear(r.wings)
	clear(r.lsos.back2)
	r.tc, r.body, r.head, r.lsos.sos, r.lsos.head = nil, nil, nil, nil, nil
}

func (r *resolver) maxSteps() int {
	if r.tc.MaxSteps > 0 {
		return r.tc.MaxSteps
	}
	return 4096
}

// resolveUse resolves the status of location x used at body index useIdx.
// The body's LASTCHECK holds the already-resolved statuses of locations it
// wrote before useIdx (intra-thread propagation, including the ⊥
// short-circuit).
func (r *resolver) resolveUse(x uint64, useIdx int) Status {
	r.steps = 0 // MaxSteps bounds one Check, not the whole block
	st := r.body.status(x)
	if st == Unknown {
		// Not written locally yet: the LSOS decides.
		st = Top
		if r.lsos.Has(x) {
			st = Bot
		}
	}
	// A written location's last local write definitely precedes the use
	// and shadows both the LSOS and any earlier own-thread function.
	if st == Bot {
		return Bot
	}
	// A concurrent wing write to x may interleave between the local
	// state above and the use.
	return merge(st, r.wingTaint(x, useIdx))
}

// wingTaint reports whether some interleaving of wing transfer functions can
// leave x tainted at the use. Only wing blocks can supply the *final* write
// to x (own-thread writes are summarized by local state), so the top level
// iterates wings only; deeper chain positions may pass through the head and
// the body as well.
func (r *resolver) wingTaint(x uint64, useIdx int) Status {
	phase := phaseLate
	if !r.tc.TwoPhase {
		phase = phaseAll
	}
	for t := range r.bnds {
		r.bnds[t] = noBound
	}
	r.bnds[r.body.thread] = pos{r.body.epoch, useIdx}
	r.path = r.path[:0]
	for _, blk := range r.wings {
		if r.followBlock(blk, x, phase) == Bot {
			return Bot
		}
	}
	return Top
}

// searchLoc reports Bot if location x can be tainted at this chain position:
// directly via the strongly ordered base, or through any allowed transfer
// function in the window.
func (r *resolver) searchLoc(x uint64, phase int) Status {
	r.steps++
	if r.steps > r.maxSteps() {
		return Bot // budget exhausted: conservative
	}
	if r.lsos.Has(x) {
		return Bot
	}
	if r.followBlock(r.body, x, phase) == Bot {
		return Bot
	}
	if r.head != nil && r.followBlock(r.head, x, phase) == Bot {
		return Bot
	}
	for _, blk := range r.wings {
		if r.followBlock(blk, x, phase) == Bot {
			return Bot
		}
	}
	return Top
}

// followBlock tries every transfer function for x in one block, applying the
// phase restriction and the termination condition.
func (r *resolver) followBlock(blk *Summary, x uint64, phase int) Status {
	l := r.body.epoch
	nextPhase := phase
	switch phase {
	case phaseEarly:
		if blk.epoch != l-1 && blk.epoch != l {
			return Top
		}
	case phaseLate:
		switch blk.epoch {
		case l, l + 1:
			// stay late
		case l - 1:
			nextPhase = phaseEarly // Lemma 6.3(3): commit to the first two epochs
		default:
			return Top
		}
	default: // phaseAll
		if blk.epoch < l-1 || blk.epoch > l+1 {
			return Top
		}
	}
	fs := blk.writes(x)
	if r.tc.SC {
		// Per-thread counters: the followed function must occur strictly
		// before the thread's current counter position. The run is in
		// block order, so the first one that does not ends the run.
		bound := r.bnds[blk.thread]
		for i := range fs {
			p := pos{blk.epoch, fs[i].idx}
			if !p.before(bound) {
				break
			}
			r.bnds[blk.thread] = p
			st := r.evalTfn(&fs[i], nextPhase)
			r.bnds[blk.thread] = bound
			if st == Bot {
				return Bot
			}
		}
		return Top
	}
	// Relaxed models: a parent may never be replaced by itself.
	for i := range fs {
		ref := trace.Ref{Epoch: blk.epoch, Thread: blk.thread, Index: fs[i].idx}
		if slices.Contains(r.path, ref) {
			continue
		}
		r.path = append(r.path, ref)
		st := r.evalTfn(&fs[i], nextPhase)
		r.path = r.path[:len(r.path)-1]
		if st == Bot {
			return Bot
		}
	}
	return Top
}

// evalTfn evaluates one transfer function under the current constraints:
// x ← ⊥ is tainted, x ← ⊤ is clean, and x ← {a[, b]} is tainted if any
// source can be tainted.
func (r *resolver) evalTfn(f *tfn, phase int) Status {
	switch f.kind {
	case tfnTaint:
		return Bot
	case tfnUntaint:
		return Top
	}
	for _, src := range f.sources() {
		if r.searchLoc(src, phase) == Bot {
			return Bot
		}
	}
	return Top
}
