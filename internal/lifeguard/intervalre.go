package lifeguard

import (
	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// The §5.2 reaching-expressions equations over byte intervals, shared by the
// lifeguards whose SOS is "the bytes for which a fact holds" (AddrCheck:
// allocated, §6.1; MemCheck: defined). Each keeps its own summary type and
// tells the kernel where GEN, KILL and the kernels' scratch live through a
// GenKill accessor.
//
// Work is proportional to the epoch, not to the state. An SOS generation is
// immutable from the moment UpdateSOS returns it until the engine hands it
// back as the dead argument of a later UpdateSOS: nobody writes it in
// between — not the first pass, whose T blocks read it concurrently, and
// not the next UpdateSOS, which reads it as prev while writing into the
// generation before it. An LSOS is therefore never a copy of the SOS but a
// sets.Overlay over it: the head's GEN and KILL and the block's own
// allocations and frees live in the overlay's two small sets, and the
// checks read through them to the shared generation. A generation carries a
// sets.Directory, built once the set is final, so a check's probe into it
// costs a few loads however many intervals the SOS holds, as the paper's
// flat per-check cost assumes. The one remaining O(|SOS|) step per epoch
// is the generation write in IntervalUpdateSOS: a single pass that
// block-copies what the epoch did not touch, then the directory's build.
// An epoch that changes nothing skips it: its generation reads the
// previous one's storage.

// IntervalSOS is an SOS generation of the interval lifeguards: the byte set
// and its address directory. The zero value is the empty generation.
//
// A generation owns the storage of one set and directory, but it may read
// another's: an epoch that changes nothing makes a generation that reads
// its predecessor's storage, at no cost, rather than a copy of it. Since
// only two generations are live at once (the update's prev and the one it
// makes; the linear SOS history of core.Lifeguard), what they read is
// always among their two own storages, and the update writes into
// whichever of the two prev does not read.
type IntervalSOS struct {
	own  sosStorage
	view *sosStorage // the storage the generation reads when it is not own
}

// sosStorage is a generation's set and the directory built over it.
type sosStorage struct {
	set sets.IntervalSet
	dir sets.Directory
}

// NewIntervalSOS returns a generation holding a copy of s.
func NewIntervalSOS(s *sets.IntervalSet) *IntervalSOS {
	g := new(IntervalSOS)
	g.own.set.CopyFrom(s)
	g.own.dir.Build(&g.own.set)
	return g
}

// storage returns what g reads.
func (g *IntervalSOS) storage() *sosStorage {
	if g.view != nil {
		return g.view
	}
	return &g.own
}

// Set returns the generation's bytes. Nobody may write them.
func (g *IntervalSOS) Set() *sets.IntervalSet { return &g.storage().set }

// IntervalScratch is the storage the interval kernels borrow from a block
// summary: the first pass's LSOS view, and the sets UpdateSOS works in
// while no pass runs. It holds nothing another thread reads, so the
// summaries of one thread may share one.
type IntervalScratch struct {
	lsos     sets.Overlay
	fromHead sets.IntervalSet
	// lost and after are this thread's entries of the GENₗ fold; kill, gen
	// and before are the epoch's, kept in thread 0's summary.
	lost, after       sets.IntervalSet
	kill, gen, before sets.IntervalSet
}

// GenKill returns a block summary's sequential GEN and KILL interval sets
// and its kernel scratch. It is never called with a nil summary.
type GenKill func(s core.Summary) (gen, kill *sets.IntervalSet, scratch *IntervalScratch)

// IntervalLSOS opens LSOS_{l,t} (§5.2.1 over intervals) as a view over the
// SOS generation: SOS bytes survive unless the head killed them; head GEN
// bytes survive unless another thread killed them in epoch l−2. The cost is
// that of the head summary, whatever the size of the SOS. The view lives in
// own, the summary the first pass is building; the inputs are left
// untouched.
func IntervalLSOS(t trace.ThreadID, ctx core.PassContext, own core.Summary, gk GenKill) *sets.Overlay {
	_, _, sc := gk(own)
	out := &sc.lsos
	sos := ctx.SOS.(*IntervalSOS).storage()
	out.Reset(&sos.set, &sos.dir)
	if ctx.Head == nil {
		return out
	}
	headGen, headKill, _ := gk(ctx.Head)
	out.RemoveSet(headKill)
	if headGen.Empty() {
		return out
	}
	fromHead := &sc.fromHead
	fromHead.Reset()
	fromHead.CopyFrom(headGen)
	for tt, s2 := range ctx.Epoch2Back {
		if trace.ThreadID(tt) == t || s2 == nil {
			continue
		}
		_, kill, _ := gk(s2)
		fromHead.SubtractInPlace(kill)
	}
	out.AddSet(fromHead)
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
// a suffix fold and a running prefix: O(T) set operations per epoch. Inputs
// are left untouched. The result is written in one pass over prev
// (sets.AssignDelta) and its directory built there, before any pass reads
// it: into dead's storage, or into prev's own when prev reads dead's (the
// two generations trade storage), or into a new generation when dead is
// nil. An epoch that changes nothing costs O(1): dead becomes a generation
// that reads prev's storage. With dead nil it copies prev into the new
// generation instead, so the final SOS shares nothing. The sets it works in
// are the curEpoch summaries' scratch, free while no pass runs.
func IntervalUpdateSOS(prev, dead core.State, prevEpoch, curEpoch []core.Summary, gk GenKill) core.State {
	p := prev.(*IntervalSOS).storage()
	out, _ := dead.(*IntervalSOS)
	if out == nil {
		out = new(IntervalSOS)
	}
	// w is the storage the result may be written in: out's own, unless
	// prev reads it. It is reclaimed whatever happens (in race builds that
	// poisons its backing).
	w := &out.own
	if w == p {
		w = &prev.(*IntervalSOS).own
	}
	w.set.Reset()
	if len(curEpoch) == 0 {
		out.share(p, w, dead == nil) // no epoch, no change
		return out
	}
	_, _, sc := gk(curEpoch[0])
	kill, gen := &sc.kill, &sc.gen
	kill.Reset()
	gen.Reset()
	anyGen := false
	for _, s := range curEpoch {
		g, k, _ := gk(s)
		kill.UnionInPlace(k)
		anyGen = anyGen || !g.Empty()
	}
	if anyGen {
		epochGen(gen, &sc.before, prevEpoch, curEpoch, gk)
	}
	if kill.Empty() && gen.Empty() {
		out.share(p, w, dead == nil)
		return out
	}
	w.set.AssignDelta(&p.set, kill, gen)
	w.dir.Build(&w.set)
	out.read(w)
	return out
}

// share makes g read p, an unchanged predecessor: by reading p's storage,
// or, when fresh is set, by copying it into w (g's own storage).
func (g *IntervalSOS) share(p, w *sosStorage, fresh bool) {
	if fresh {
		w.set.CopyFrom(&p.set)
		w.dir.CopyFrom(&p.dir)
		p = w
	}
	g.read(p)
}

// read points g at st; a generation that reads its own storage keeps a nil
// view, as the zero value and NewIntervalSOS do.
func (g *IntervalSOS) read(st *sosStorage) {
	g.view = st
	if st == &g.own {
		g.view = nil
	}
}

// epochGen writes GENₗ into gen, which must be empty; before is scratch.
// Thread t's lost and after sets live in its own summary's scratch:
// lost[t] as defined above, after[t] = ⋃_{t'>t} lost[t'].
func epochGen(gen, before *sets.IntervalSet, prevEpoch, curEpoch []core.Summary, gk GenKill) {
	for t, s := range curEpoch {
		curGen, curKill, sc := gk(s)
		l := &sc.lost
		l.Reset()
		l.CopyFrom(curKill) // killedSpan, then minus gennedSpan
		if prevEpoch != nil && prevEpoch[t] != nil {
			prevGen, prevKill, _ := gk(prevEpoch[t])
			l.UnionInPlace(prevKill)
			tmp := &sc.after // free until the suffix fold below
			tmp.Reset()
			tmp.CopyFrom(prevGen)
			tmp.SubtractInPlace(curKill)
			l.SubtractInPlace(tmp)
		}
		l.SubtractInPlace(curGen)
	}
	// The suffix fold, from the last thread down.
	var next *IntervalScratch
	for t := len(curEpoch) - 1; t >= 0; t-- {
		_, _, sc := gk(curEpoch[t])
		sc.after.Reset()
		if next != nil {
			sc.after.CopyFrom(&next.after)
			sc.after.UnionInPlace(&next.lost)
		}
		next = sc
	}
	// before = ⋃_{t'<t} lost[t'], the running prefix. Once thread t's
	// exclusive union (before ∪ after[t]) is formed in after[t], lost[t] has
	// joined before and holds thread t's surviving GEN instead.
	before.Reset()
	for _, s := range curEpoch {
		gt, _, sc := gk(s)
		sc.after.UnionInPlace(before)
		before.UnionInPlace(&sc.lost)
		sc.lost.CopyFrom(gt)
		sc.lost.SubtractInPlace(&sc.after)
		gen.UnionInPlace(&sc.lost)
	}
}
