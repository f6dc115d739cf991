package taintcheck

// A reference the sorted-vector body cannot share a mistake with. The
// differential suites in internal/core compare engines, not lifeguards:
// referenceRun calls this package's own FirstPass/SecondPass/UpdateSOS, so a
// semantic slip in them is invisible there. refTaint is the map-based
// lifeguard the vectors replaced, transcribed without pooling: pointer
// transfer functions in per-location maps, a LASTCHECK map, an LSOS
// materialised as a fresh set per block, a resolver with map-valued SC
// counters and a map path, and an SOS update built from set copies.
// TestMatchesMapReference runs both over seeded grids and requires identical
// reports and identical SOS generations at every epoch.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

type refTaint struct {
	SC, TwoPhase bool
	MaxSteps     int
}

type refTfn struct {
	idx  int
	ref  trace.Ref
	loc  uint64
	kind tfnKind
	srcs [2]uint64
}

func (f *refTfn) sources() []uint64 {
	switch f.kind {
	case tfnUnop:
		return f.srcs[:1]
	case tfnBinop:
		return f.srcs[:2]
	}
	return nil
}

type refSummary struct {
	epoch     int
	thread    trace.ThreadID
	writes    map[uint64][]*refTfn
	lastCheck map[uint64]Status
}

func refSum(s core.Summary) *refSummary {
	if s == nil {
		return nil
	}
	return s.(*refSummary)
}

func refSpan(head, cur *refSummary, x uint64) Status {
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
	return Unknown
}

func (tc *refTaint) Name() string { return "taintcheck-map-reference" }

func (tc *refTaint) BottomState() core.State { return sets.NewSet() }

func (tc *refTaint) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s := &refSummary{epoch: b.Epoch, thread: b.Thread,
		writes: map[uint64][]*refTfn{}, lastCheck: map[uint64]Status{}}
	add := func(i int, loc uint64, kind tfnKind, srcs [2]uint64) {
		s.writes[loc] = append(s.writes[loc], &refTfn{idx: i, ref: b.Ref(i), loc: loc, kind: kind, srcs: srcs})
	}
	for i, e := range b.Events {
		switch e.Kind {
		case trace.TaintSrc:
			for a := e.Lo(); a < e.Hi(); a++ {
				add(i, a, tfnTaint, [2]uint64{})
			}
		case trace.Untaint, trace.Write:
			add(i, e.Addr, tfnUntaint, [2]uint64{})
		case trace.AssignUn:
			add(i, e.Addr, tfnUnop, [2]uint64{e.Src1})
		case trace.AssignBin:
			add(i, e.Addr, tfnBinop, [2]uint64{e.Src1, e.Src2})
		}
	}
	return s, nil
}

func (tc *refTaint) lsos(t trace.ThreadID, ctx core.PassContext) sets.Set {
	sos := ctx.SOS.(sets.Set)
	head := refSum(ctx.Head)
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
		for tt, s2 := range ctx.Epoch2Back {
			if trace.ThreadID(tt) == t || s2 == nil {
				continue
			}
			if st2, ok := refSum(s2).lastCheck[x]; ok && st2 == Bot {
				out.Add(x)
				break
			}
		}
	}
	return out
}

func (tc *refTaint) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	own := refSum(ctx.Own)
	r := &refResolver{tc: tc, body: own, head: refSum(ctx.Head), lsos: tc.lsos(b.Thread, ctx)}
	for _, w := range wings {
		r.wings = append(r.wings, refSum(w))
	}
	var reports []core.Report
	local := map[uint64]Status{}
	for i, e := range b.Events {
		switch e.Kind {
		case trace.TaintSrc:
			for a := e.Lo(); a < e.Hi(); a++ {
				local[a] = Bot
			}
		case trace.Untaint, trace.Write:
			local[e.Addr] = Top
		case trace.AssignUn:
			local[e.Addr] = r.resolveUse(e.Src1, i, local)
		case trace.AssignBin:
			local[e.Addr] = merge(r.resolveUse(e.Src1, i, local), r.resolveUse(e.Src2, i, local))
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

func (tc *refTaint) UpdateSOS(prev, _ core.State, prevEpoch, curEpoch []core.Summary) core.State {
	sos := prev.(sets.Set)
	gen, kill := sets.NewSet(), sets.NewSet()
	T := len(curEpoch)
	for t := 0; t < T; t++ {
		for x, s := range refSum(curEpoch[t]).lastCheck {
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
				var head *refSummary
				if prevEpoch != nil {
					head = refSum(prevEpoch[tt])
				}
				if refSpan(head, refSum(curEpoch[tt]), x) == Bot {
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

type refBounds map[trace.ThreadID]pos

func (b refBounds) with(t trace.ThreadID, p pos) refBounds {
	nb := make(refBounds, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	nb[t] = p
	return nb
}

type refResolver struct {
	tc    *refTaint
	body  *refSummary
	head  *refSummary
	wings []*refSummary
	lsos  sets.Set
	steps int
}

func (r *refResolver) maxSteps() int {
	if r.tc.MaxSteps > 0 {
		return r.tc.MaxSteps
	}
	return 4096
}

func (r *refResolver) resolveUse(x uint64, useIdx int, local map[uint64]Status) Status {
	r.steps = 0
	var st Status
	if s, ok := local[x]; ok {
		st = s
	} else if r.lsos.Has(x) {
		st = Bot
	} else {
		st = Top
	}
	if st == Bot {
		return Bot
	}
	return merge(st, r.wingTaint(x, useIdx))
}

func (r *refResolver) wingTaint(x uint64, useIdx int) Status {
	phase := phaseLate
	if !r.tc.TwoPhase {
		phase = phaseAll
	}
	bnds := refBounds{r.body.thread: {r.body.epoch, useIdx}}
	path := map[trace.Ref]bool{}
	for _, blk := range r.wings {
		if r.followBlock(blk, x, bnds, path, phase) == Bot {
			return Bot
		}
	}
	return Top
}

func (r *refResolver) searchLoc(x uint64, bnds refBounds, path map[trace.Ref]bool, phase int) Status {
	r.steps++
	if r.steps > r.maxSteps() {
		return Bot
	}
	if r.lsos.Has(x) {
		return Bot
	}
	if r.followBlock(r.body, x, bnds, path, phase) == Bot {
		return Bot
	}
	if r.head != nil && r.followBlock(r.head, x, bnds, path, phase) == Bot {
		return Bot
	}
	for _, blk := range r.wings {
		if r.followBlock(blk, x, bnds, path, phase) == Bot {
			return Bot
		}
	}
	return Top
}

func (r *refResolver) followBlock(blk *refSummary, x uint64, bnds refBounds, path map[trace.Ref]bool, phase int) Status {
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
		case l - 1:
			nextPhase = phaseEarly
		default:
			return Top
		}
	default:
		if blk.epoch < l-1 || blk.epoch > l+1 {
			return Top
		}
	}
	for _, f := range blk.writes[x] {
		if r.tc.SC {
			p := pos{f.ref.Epoch, f.idx}
			if b, ok := bnds[blk.thread]; ok && !p.before(b) {
				continue
			}
			if r.evalTfn(f, bnds.with(blk.thread, p), path, nextPhase) == Bot {
				return Bot
			}
		} else {
			if path[f.ref] {
				continue
			}
			path[f.ref] = true
			st := r.evalTfn(f, bnds, path, nextPhase)
			delete(path, f.ref)
			if st == Bot {
				return Bot
			}
		}
	}
	return Top
}

func (r *refResolver) evalTfn(f *refTfn, bnds refBounds, path map[trace.Ref]bool, phase int) Status {
	switch f.kind {
	case tfnTaint:
		return Bot
	case tfnUntaint:
		return Top
	}
	for _, src := range f.sources() {
		if r.searchLoc(src, bnds, path, phase) == Bot {
			return Bot
		}
	}
	return Top
}

// recorder wraps a lifeguard and keeps a sorted copy of every SOS
// generation its UpdateSOS returns. It keeps copies, not the generations,
// so it passes the dead ones on and the vector body's reuse stays live.
type recorder struct {
	core.Lifeguard
	gens [][]uint64
}

func (r *recorder) UpdateSOS(prev, dead core.State, prevEpoch, curEpoch []core.Summary) core.State {
	next := r.Lifeguard.UpdateSOS(prev, dead, prevEpoch, curEpoch)
	r.gens = append(r.gens, sosElems(next))
	return next
}

// sosElems renders either SOS representation as its sorted locations.
func sosElems(s core.State) []uint64 {
	if m, ok := s.(sets.Set); ok {
		return m.Elems()
	}
	return slices.Clone(s.(*sos).locs)
}

// refGrid is one seeded grid for the reference suite: T threads over a
// small location space (so chains meet, shadow and revisit locations) with
// every taint-relevant kind, multi-byte taint sources, plain stores and
// Nops; some blocks are empty. Locations are drawn from 6 + seed%10
// addresses, so some grids taint nearly everything and others little.
func refGrid(t *testing.T, rng *rand.Rand, T int, seed int64) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(T)
	nloc := 6 + int(seed%10)
	loc := func() uint64 { return uint64(0x100 + rng.Intn(nloc)) }
	for th := 0; th < T; th++ {
		b.T(trace.ThreadID(th))
		n := rng.Intn(48)
		if rng.Intn(6) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			switch p := rng.Intn(20); {
			case p < 2:
				b.Taint(loc(), uint64(1+rng.Intn(3)))
			case p < 4:
				b.Untaint(loc())
			case p < 5:
				b.Write(loc(), 1)
			case p < 10:
				b.Unop(loc(), loc())
			case p < 14:
				b.Binop(loc(), loc(), loc())
			case p < 19:
				b.Jump(loc())
			default:
				b.Nop(1)
			}
		}
	}
	h := []int{1, 2, 3, 5, 8}[rng.Intn(5)]
	g, err := epoch.ChunkWithSkew(b.Build(), h, rng.Intn(h), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMatchesMapReference(t *testing.T) {
	hits := 0 // runs where the small step budget changed a verdict
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(seed))
		T := 2 + int(seed%3)
		g := refGrid(t, rng, T, seed)
		mode := seed / 3 % 4
		sc, twoPhase := mode&1 == 0, mode&2 == 0
		maxSteps := 0
		if seed%5 == 4 {
			maxSteps = 3 + rng.Intn(6)
		}
		parallel := seed/12%2 == 1
		cfg := fmt.Sprintf("seed=%d T=%d SC=%v TwoPhase=%v MaxSteps=%d parallel=%v",
			seed, T, sc, twoPhase, maxSteps, parallel)

		want := &recorder{Lifeguard: &refTaint{SC: sc, TwoPhase: twoPhase, MaxSteps: maxSteps}}
		wres := (&core.Driver{LG: want}).Run(g)
		got := &recorder{Lifeguard: &Butterfly{SC: sc, TwoPhase: twoPhase, MaxSteps: maxSteps}}
		gres := (&core.Driver{LG: got, Parallel: parallel}).Run(g)
		if !reflect.DeepEqual(gres.Reports, wres.Reports) {
			t.Fatalf("%s: reports diverge from the map reference\n got: %v\nwant: %v", cfg, gres.Reports, wres.Reports)
		}
		if len(got.gens) != len(want.gens) {
			t.Fatalf("%s: %d SOS generations, reference has %d", cfg, len(got.gens), len(want.gens))
		}
		for l := range want.gens {
			if !slices.Equal(got.gens[l], want.gens[l]) {
				t.Fatalf("%s: SOS generation %d diverges\n got: %v\nwant: %v", cfg, l, got.gens[l], want.gens[l])
			}
		}
		if !slices.Equal(sosElems(gres.FinalSOS), sosElems(wres.FinalSOS)) {
			t.Fatalf("%s: final SOS diverges", cfg)
		}
		if maxSteps > 0 {
			free := (&core.Driver{LG: &refTaint{SC: sc, TwoPhase: twoPhase}}).Run(g)
			if !reflect.DeepEqual(free.Reports, wres.Reports) {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("the small MaxSteps never changed a report: the budget went untested")
	}
}
