package reaching

import (
	"testing"

	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

func mkGrid(t *testing.T, tr *trace.Trace, h int) *epoch.Grid {
	t.Helper()
	g, err := epoch.ChunkByCount(tr, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFoldAndForwardINs(t *testing.T) {
	seq := []GenKill{
		{Gen: sets.NewSet(1)},
		{Gen: sets.NewSet(2), Kill: sets.NewSet(1)},
		{Kill: sets.NewSet(2)},
	}
	out := Fold(seq, sets.NewSet(9))
	if !out.Equal(sets.NewSet(9)) {
		t.Fatalf("Fold = %v", out)
	}
	ins := ForwardINs(seq, sets.NewSet())
	if !ins[0].Equal(sets.NewSet()) || !ins[1].Equal(sets.NewSet(1)) || !ins[2].Equal(sets.NewSet(2)) {
		t.Fatalf("ForwardINs = %v", ins)
	}
	// Fold must not mutate its input.
	in := sets.NewSet(5)
	Fold([]GenKill{{Kill: sets.NewSet(5)}}, in)
	if !in.Has(5) {
		t.Fatal("Fold mutated its input")
	}
}

func TestDefUniverse(t *testing.T) {
	tr := trace.NewBuilder(2).
		T(0).Write(0xa, 1).Write(0xb, 1).Write(0xa, 1).
		T(1).Write(0xa, 1).Read(0xb, 1).
		Build()
	g := mkGrid(t, tr, 10)
	u := BuildDefUniverse(g)
	if u.NumDefs() != 4 {
		t.Fatalf("NumDefs = %d", u.NumDefs())
	}
	if u.DefsOf(0xa).Len() != 3 || u.DefsOf(0xb).Len() != 1 {
		t.Fatalf("DefsOf: a=%v b=%v", u.DefsOf(0xa), u.DefsOf(0xb))
	}
	if u.DefsOf(0xc) != nil {
		t.Fatal("DefsOf unknown address should be nil")
	}
	ref := trace.Ref{Epoch: 0, Thread: 0, Index: 0}
	if u.LocOf(ref.Pack()) != 0xa {
		t.Fatal("LocOf wrong")
	}
	gk := u.DefEffect(ref, tr.Threads[0][0])
	if !gk.Gen.Equal(sets.NewSet(ref.Pack())) {
		t.Fatalf("DefEffect gen = %v", gk.Gen)
	}
	if gk.Kill.Len() != 2 || gk.Kill.Has(ref.Pack()) {
		t.Fatalf("DefEffect kill = %v", gk.Kill)
	}
	// Reads have no def effect.
	if got := u.DefEffect(trace.Ref{}, tr.Threads[1][1]); got.Gen != nil || got.Kill != nil {
		t.Fatal("read should have empty effect")
	}
}

func TestSeqReachingDefs(t *testing.T) {
	r0 := trace.Ref{Epoch: 0, Thread: 0, Index: 0}
	r1 := trace.Ref{Epoch: 0, Thread: 1, Index: 0}
	r2 := trace.Ref{Epoch: 0, Thread: 0, Index: 1}
	evs := []trace.Event{
		{Kind: trace.Write, Addr: 0xa},
		{Kind: trace.Write, Addr: 0xa},
		{Kind: trace.Write, Addr: 0xb},
	}
	got := SeqReachingDefs([]trace.Ref{r0, r1, r2}, evs)
	// Last writer of 0xa is r1; of 0xb is r2.
	want := sets.NewSet(r1.Pack(), r2.Pack())
	if !got.Equal(want) {
		t.Fatalf("SeqReachingDefs = %v, want %v", got, want)
	}
}

func TestExprUniverse(t *testing.T) {
	tr := trace.NewBuilder(1).
		T(0).Binop(0x1, 0xa, 0xb). // e0 = a+b
		Unop(0x2, 0xa).            // e1 = op(a)
		Binop(0x3, 0xa, 0xb).      // e0 again
		Write(0xa, 1).
		Build()
	g := mkGrid(t, tr, 10)
	u := BuildExprUniverse(g)
	if u.NumExprs() != 2 {
		t.Fatalf("NumExprs = %d", u.NumExprs())
	}
	if u.Using(0xa).Len() != 2 || u.Using(0xb).Len() != 1 {
		t.Fatalf("Using: a=%v b=%v", u.Using(0xa), u.Using(0xb))
	}
	id0, ok := u.ExprID(tr.Threads[0][0])
	if !ok {
		t.Fatal("ExprID missing")
	}
	id0b, _ := u.ExprID(tr.Threads[0][2])
	if id0 != id0b {
		t.Fatal("same expression interned twice")
	}
	if _, ok := u.ExprID(trace.Event{Kind: trace.Read, Addr: 1}); ok {
		t.Fatal("read should compute no expression")
	}
}

func TestExprEffect(t *testing.T) {
	tr := trace.NewBuilder(1).
		T(0).Binop(0x1, 0xa, 0xb).
		Binop(0xa, 0xa, 0xb). // computes a+b then kills it (writes a)
		Write(0xb, 1).
		Build()
	g := mkGrid(t, tr, 10)
	u := BuildExprUniverse(g)
	e0 := u.ExprEffect(tr.Threads[0][0])
	if e0.Gen.Len() != 1 || e0.Kill != nil {
		t.Fatalf("plain binop effect = %+v", e0)
	}
	// Self-invalidating assignment: net effect must not generate.
	e1 := u.ExprEffect(tr.Threads[0][1])
	if e1.Gen.Len() != 0 || e1.Kill.Len() != 1 {
		t.Fatalf("self-invalidating effect = gen %v kill %v", e1.Gen, e1.Kill)
	}
	// Write to an operand kills.
	e2 := u.ExprEffect(tr.Threads[0][2])
	if e2.Gen != nil || e2.Kill.Len() != 1 {
		t.Fatalf("operand write effect = %+v", e2)
	}
}

func TestSeqAvailExprs(t *testing.T) {
	tr := trace.NewBuilder(1).
		T(0).Binop(0x1, 0xa, 0xb).
		Binop(0x2, 0xc, 0xd).
		Write(0xa, 1). // kills a+b
		Build()
	g := mkGrid(t, tr, 10)
	u := BuildExprUniverse(g)
	got := u.SeqAvailExprs(tr.Threads[0])
	idCD, _ := u.ExprID(tr.Threads[0][1])
	if !got.Equal(sets.NewSet(idCD)) {
		t.Fatalf("SeqAvailExprs = %v", got)
	}
}

func TestBlockSummary(t *testing.T) {
	// gen 1; kill 1 gen 2; kill 3.
	seq := []GenKill{
		{Gen: sets.NewSet(1)},
		{Gen: sets.NewSet(2), Kill: sets.NewSet(1)},
		{Kill: sets.NewSet(3)},
	}
	s := BlockSummary(seq)
	if !s.Gen.Equal(sets.NewSet(2)) {
		t.Errorf("Gen = %v", s.Gen)
	}
	if !s.Kill.Equal(sets.NewSet(1, 3)) {
		t.Errorf("Kill = %v", s.Kill)
	}
	// Regeneration after kill removes from KILL.
	seq2 := []GenKill{
		{Kill: sets.NewSet(7)},
		{Gen: sets.NewSet(7)},
	}
	s2 := BlockSummary(seq2)
	if !s2.Gen.Equal(sets.NewSet(7)) || !s2.Kill.Empty() {
		t.Errorf("summary after regen = %+v", s2)
	}
	// Summary must agree with Fold on arbitrary input state:
	// Fold(seq, in) == Gen ∪ (in − Kill).
	in := sets.NewSet(1, 3, 5)
	direct := Fold(seq, in)
	viaSummary := s.Gen.Union(in.Difference(s.Kill))
	if !direct.Equal(viaSummary) {
		t.Errorf("Fold=%v via summary=%v", direct, viaSummary)
	}
}
