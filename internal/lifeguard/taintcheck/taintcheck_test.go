package taintcheck

import (
	"math/rand"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/interleave"
	"butterfly/internal/lifeguard"
	"butterfly/internal/trace"
)

func run(t *testing.T, lg *Butterfly, tr *trace.Trace, h int) *core.Result {
	t.Helper()
	g, err := epoch.ChunkByCount(tr, h)
	if err != nil {
		t.Fatal(err)
	}
	return (&core.Driver{LG: lg}).Run(g)
}

func runHB(t *testing.T, lg *Butterfly, tr *trace.Trace) *core.Result {
	t.Helper()
	g, err := epoch.ChunkByHeartbeat(tr)
	if err != nil {
		t.Fatal(err)
	}
	return (&core.Driver{LG: lg}).Run(g)
}

func flagged(res *core.Result) map[trace.Ref]bool {
	m := map[trace.Ref]bool{}
	for _, r := range res.Reports {
		m[r.Ref] = true
	}
	return m
}

func TestSingleThreadPropagation(t *testing.T) {
	// taint(a); b := a; jump(b) → flagged. After untaint, clean.
	const a, b = 0x10, 0x20
	tr := trace.NewBuilder(1).
		T(0).Taint(a, 1).Unop(b, a).Jump(b).Untaint(b).Jump(b).
		Build()
	res := run(t, New(), tr, 8)
	m := flagged(res)
	if !m[trace.Ref{Epoch: 0, Thread: 0, Index: 2}] {
		t.Error("tainted jump not flagged")
	}
	if m[trace.Ref{Epoch: 0, Thread: 0, Index: 4}] {
		t.Error("jump after untaint flagged")
	}
}

func TestBinopEitherSourceTaints(t *testing.T) {
	const a, b, c = 0x10, 0x20, 0x30
	tr := trace.NewBuilder(1).
		T(0).Taint(b, 1).Untaint(a).Binop(c, a, b).Jump(c).
		Build()
	res := run(t, New(), tr, 8)
	if !flagged(res)[trace.Ref{Epoch: 0, Thread: 0, Index: 3}] {
		t.Error("binop with one tainted source not flagged")
	}
}

func TestWriteUntaints(t *testing.T) {
	const a = 0x10
	tr := trace.NewBuilder(1).
		T(0).Taint(a, 1).Write(a, 1).Jump(a).
		Build()
	res := run(t, New(), tr, 8)
	if len(res.Reports) != 0 {
		t.Errorf("store should untaint: %v", res.Reports)
	}
}

func TestCrossThreadTaintThroughSOS(t *testing.T) {
	// Thread 0 taints a in epoch 0; thread 1 jumps through a in epoch 2
	// (strictly ordered): must flag — the taint arrives via the SOS.
	const a = 0x10
	tr := trace.NewBuilder(2).
		T(0).Taint(a, 1).Heartbeat().Nop(1).Heartbeat().Nop(1).
		T(1).Nop(1).Heartbeat().Nop(1).Heartbeat().Jump(a).
		Build()
	res := runHB(t, New(), tr)
	if !flagged(res)[trace.Ref{Epoch: 2, Thread: 1, Index: 0}] {
		t.Fatalf("SOS-propagated taint missed: %v", res.Reports)
	}
}

func TestCrossThreadTaintAdjacentEpoch(t *testing.T) {
	// Thread 0 taints a in epoch 1; thread 1 uses it in epoch 1 via an
	// assignment chain — potentially concurrent, must flag conservatively.
	const a, b = 0x10, 0x20
	tr := trace.NewBuilder(2).
		T(0).Nop(1).Heartbeat().Taint(a, 1).
		T(1).Nop(1).Heartbeat().Unop(b, a).Jump(b).
		Build()
	res := runHB(t, New(), tr)
	if !flagged(res)[trace.Ref{Epoch: 1, Thread: 1, Index: 1}] {
		t.Fatalf("wing taint missed: %v", res.Reports)
	}
}

func TestFigure2ZigZag(t *testing.T) {
	// Paper Figure 2: buf tainted earlier. Thread 1: (1) b := a, (2) c :=
	// buf. Thread 2: (i) a := c. All in one epoch: under relaxed checking,
	// b, c and a may all be flagged at a use; under SC the zig-zag
	// (2)→(i)→(1) is impossible, but (i) after (2) is possible, so a and c
	// taint; b tainting requires the impossible path.
	const a, b, c, buf = 0xa, 0xb, 0xc, 0xbf
	build := func() *trace.Trace {
		return trace.NewBuilder(2).
			T(0).Taint(buf, 1).Heartbeat().Nop(1).Heartbeat().
			Unop(b, a).Unop(c, buf).Jump(b).
			T(1).Nop(1).Heartbeat().Nop(1).Heartbeat().
			Unop(a, c).Jump(a).
			Build()
	}
	// Under SC: a := c can see tainted c? c is tainted by (2) in the same
	// epoch — adjacent/wing → yes, jump(a) flags. b := a happens before c
	// := buf in thread 0's program order, and a := c is concurrent; for b
	// to taint, (2) must precede (i) precede (1) — impossible under SC
	// because (1) precedes (2) in program order. The SC termination
	// condition must therefore NOT flag jump(b).
	resSC := runHB(t, New(), build())
	mSC := flagged(resSC)
	if !mSC[trace.Ref{Epoch: 2, Thread: 1, Index: 1}] {
		t.Error("SC: jump(a) should flag (c's taint can reach a)")
	}
	if mSC[trace.Ref{Epoch: 2, Thread: 0, Index: 2}] {
		t.Error("SC: jump(b) flagged, but the tainting path violates program order")
	}
	// Under the relaxed model the zig-zag is legal on some machines, so
	// jump(b) must be flagged too.
	resRel := runHB(t, NewRelaxed(), build())
	mRel := flagged(resRel)
	if !mRel[trace.Ref{Epoch: 2, Thread: 1, Index: 1}] {
		t.Error("relaxed: jump(a) should flag")
	}
	if !mRel[trace.Ref{Epoch: 2, Thread: 0, Index: 2}] {
		t.Error("relaxed: jump(b) should flag (zig-zag is legal)")
	}
}

func TestTwoPhaseAvoidsImpossibleOrdering(t *testing.T) {
	// §6.2 "Reducing False Positives": resolving (a_{2,2,1} ← b) with wings
	// (b_{1,3,1} ← r) and (r_{3,1,1} ← ⊥): tainting a requires epoch 3 to
	// execute before epoch 1 — impossible. Two-phase resolution must not
	// flag; single-phase (the ablation) does.
	const a, b, r = 0xa, 0xb, 0xc
	build := func() *trace.Trace {
		return trace.NewBuilder(3).
			// epochs:      0        1           2          3
			T(0).Nop(1).Heartbeat().Nop(1).Heartbeat().Nop(1).Heartbeat().Taint(r, 1).
			T(1).Nop(1).Heartbeat().Nop(1).Heartbeat().Unop(a, b).Jump(a).Heartbeat().Nop(1).
			T(2).Nop(1).Heartbeat().Unop(b, r).Heartbeat().Nop(1).Heartbeat().Nop(1).
			Build()
	}
	two := runHB(t, New(), build())
	if flagged(two)[trace.Ref{Epoch: 2, Thread: 1, Index: 1}] {
		t.Errorf("two-phase resolution flagged an impossible ordering: %v", two.Reports)
	}
	one := &Butterfly{SC: true, TwoPhase: false}
	single := runHB(t, one, build())
	if !flagged(single)[trace.Ref{Epoch: 2, Thread: 1, Index: 1}] {
		t.Error("single-phase ablation should flag (it cannot rule the ordering out)")
	}
}

// randomTaintTrace builds small traces over a tiny location space with all
// taint-relevant event kinds.
func randomTaintTrace(rng *rand.Rand, nthreads, perThread int) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	loc := func() uint64 { return uint64(0x10 + rng.Intn(4)) }
	for th := 0; th < nthreads; th++ {
		b.T(trace.ThreadID(th))
		for i := 0; i < perThread; i++ {
			switch rng.Intn(6) {
			case 0:
				b.Taint(loc(), 1)
			case 1:
				b.Untaint(loc())
			case 2:
				b.Unop(loc(), loc())
			case 3:
				b.Binop(loc(), loc(), loc())
			default:
				b.Jump(loc())
			}
		}
	}
	return b.Build()
}

// TestTheorem62ZeroFalseNegatives: for every valid (sequentially
// consistent) ordering, every tainted critical use the sequential oracle
// reports must be flagged by the butterfly TaintCheck — under both the SC
// and the relaxed termination conditions.
func TestTheorem62ZeroFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 60; iter++ {
		tr := randomTaintTrace(rng, 2, 4)
		g, err := epoch.ChunkByCount(tr, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, lg := range []*Butterfly{New(), NewRelaxed()} {
			res := (&core.Driver{LG: lg}).Run(g)
			m := flagged(res)
			oracle := NewOracle()
			interleave.Enumerate(g, func(o []interleave.Item) bool {
				for _, rep := range lifeguard.RunOracle(oracle, o) {
					if !m[rep.Ref] {
						t.Errorf("iter %d (SC=%v): FALSE NEGATIVE: %v missed", iter, lg.SC, rep)
						return false
					}
				}
				return true
			})
			if t.Failed() {
				return
			}
		}
	}
}

// TestRelaxedFlagsSupersetOfSC: the relaxed termination condition is
// strictly more conservative, so its flag set must contain the SC one.
func TestRelaxedFlagsSupersetOfSC(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 40; iter++ {
		tr := randomTaintTrace(rng, 3, 5)
		sc := run(t, New(), tr, 2)
		rel := run(t, NewRelaxed(), tr, 2)
		mRel := flagged(rel)
		for ref := range flagged(sc) {
			if !mRel[ref] {
				t.Fatalf("iter %d: SC flagged %v but relaxed did not", iter, ref)
			}
		}
	}
}

// TestSinglePhaseFlagsSupersetOfTwoPhase: disabling two-phase resolution
// only adds false positives, never removes reports.
func TestSinglePhaseFlagsSupersetOfTwoPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 40; iter++ {
		tr := randomTaintTrace(rng, 3, 5)
		two := run(t, New(), tr, 2)
		one := run(t, &Butterfly{SC: true, TwoPhase: false}, tr, 2)
		mOne := flagged(one)
		for ref := range flagged(two) {
			if !mOne[ref] {
				t.Fatalf("iter %d: two-phase flagged %v but single-phase did not", iter, ref)
			}
		}
	}
}

// TestFigure10SOSTiming: thread taints a in epoch j+1 through a chain whose
// head is in epoch j; a jump through a dependent location in epoch j+2 of
// another thread must still be flagged — the taint must enter the SOS in
// time (Figure 10).
func TestFigure10SOSTiming(t *testing.T) {
	const a, b, d = 0xa, 0xb, 0xd
	tr := trace.NewBuilder(2).
		// Thread 0: taint b (epoch j); a := b (epoch j+1).
		T(0).Taint(b, 1).Heartbeat().Unop(a, b).Heartbeat().Nop(1).
		// Thread 1: d := a; jump d (epoch j+2).
		T(1).Nop(1).Heartbeat().Nop(1).Heartbeat().Unop(d, a).Jump(d).
		Build()
	res := runHB(t, New(), tr)
	if !flagged(res)[trace.Ref{Epoch: 2, Thread: 1, Index: 1}] {
		t.Fatalf("Figure 10 taint missed (SOS updated too late): %v", res.Reports)
	}
}

func TestOracleBasics(t *testing.T) {
	o := NewOracle()
	p := func(k trace.Kind, addr, s1, s2 uint64) []core.Report {
		return o.Process(trace.Ref{}, trace.Event{Kind: k, Addr: addr, Size: 1, Src1: s1, Src2: s2})
	}
	p(trace.TaintSrc, 0x10, 0, 0)
	if got := p(trace.Jump, 0x10, 0, 0); len(got) != 1 {
		t.Fatal("tainted jump not reported")
	}
	p(trace.AssignUn, 0x20, 0x10, 0)
	if !o.Tainted().Has(0x20) {
		t.Fatal("propagation failed")
	}
	p(trace.AssignBin, 0x30, 0x40, 0x20)
	if !o.Tainted().Has(0x30) {
		t.Fatal("binop propagation failed")
	}
	p(trace.Untaint, 0x30, 0, 0)
	if got := p(trace.Jump, 0x30, 0, 0); len(got) != 0 {
		t.Fatal("untainted jump reported")
	}
	p(trace.Write, 0x20, 0, 0)
	if o.Tainted().Has(0x20) {
		t.Fatal("store should untaint")
	}
	o.Reset()
	if !o.Tainted().Empty() {
		t.Fatal("Reset did not clear")
	}
}

func TestStatusString(t *testing.T) {
	if Top.String() != "⊤" || Bot.String() != "⊥" || Unknown.String() != "?" {
		t.Fatal("status strings wrong")
	}
	if merge(Top, Bot) != Bot || merge(Top, Top) != Top || merge(Unknown, Top) != Top {
		t.Fatal("merge lattice wrong")
	}
}

// TestMaxStepsPerCheck: the step budget bounds one Check invocation, so a
// use's verdict cannot depend on how many checks ran before it in the
// block. Every jump below costs one chain step (the wing's x ← {y}, with y
// clean); a budget shared across the block would flag the third jump on.
func TestMaxStepsPerCheck(t *testing.T) {
	const x, y = 0x10, 0x20
	b := trace.NewBuilder(2)
	b.T(0)
	for i := 0; i < 16; i++ {
		b.Jump(x)
	}
	b.T(1).Unop(x, y)
	tr := b.Build()
	for _, lg := range []*Butterfly{
		{SC: true, TwoPhase: true, MaxSteps: 2},
		{SC: false, TwoPhase: true, MaxSteps: 2},
		{SC: true, TwoPhase: false, MaxSteps: 2},
	} {
		if res := run(t, lg, tr, 32); len(res.Reports) != 0 {
			t.Errorf("SC=%v TwoPhase=%v MaxSteps=%d: clean jumps flagged: %v",
				lg.SC, lg.TwoPhase, lg.MaxSteps, res.Reports)
		}
	}
	// A chain longer than the budget is still conservatively tainted (in
	// program order, so the SC counters allow it).
	long := trace.NewBuilder(2).
		T(0).Jump(x).
		T(1).Unop(0x30, 0x40).Unop(y, 0x30).Unop(x, y).
		Build()
	if res := run(t, &Butterfly{SC: true, TwoPhase: true, MaxSteps: 2}, long, 32); len(res.Reports) != 1 {
		t.Errorf("exhausted budget did not flag conservatively: %v", res.Reports)
	}
}
