package reaching

// This file holds the sequential formulations the butterfly analyses are
// defined against: the definition and expression universes, the per-
// instruction gen/kill effects the butterfly passes reuse for their
// intra-block work, and the sequential analyses over one ordering that the
// Lemma 5.1/5.2 tests enumerate.

import (
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// GenKill is the dataflow effect of one instruction.
type GenKill struct {
	Gen, Kill sets.Set
}

// Fold computes OUT = GEN ∪ (IN − KILL) left to right over seq, starting
// from in. It does not mutate in.
func Fold(seq []GenKill, in sets.Set) sets.Set {
	out := in.Clone()
	for _, gk := range seq {
		if gk.Kill != nil {
			out.RemoveAll(gk.Kill)
		}
		if gk.Gen != nil {
			out.AddAll(gk.Gen)
		}
	}
	return out
}

// ForwardINs returns the IN set before each instruction of seq, starting
// from in. ForwardINs(seq, in)[i] is the state just before seq[i].
func ForwardINs(seq []GenKill, in sets.Set) []sets.Set {
	ins := make([]sets.Set, len(seq))
	cur := in.Clone()
	for i, gk := range seq {
		ins[i] = cur.Clone()
		if gk.Kill != nil {
			cur.RemoveAll(gk.Kill)
		}
		if gk.Gen != nil {
			cur.AddAll(gk.Gen)
		}
	}
	return ins
}

// IsDef reports whether the event defines (writes) its Addr for the purposes
// of the canonical analyses: stores, assignments, and untainting constant
// writes are definitions. Allocation events are not (AddrCheck models them
// separately).
func IsDef(e trace.Event) bool {
	switch e.Kind {
	case trace.Write, trace.AssignUn, trace.AssignBin, trace.Untaint:
		return true
	}
	return false
}

// DefUniverse indexes every dynamic definition in a grid. In dynamic
// reaching definitions each defining instruction instance is its own
// definition d_k, named by its packed (l, t, i) ref; the "variable" of a
// definition is the address it writes.
type DefUniverse struct {
	byLoc map[uint64]sets.Set // address -> set of def IDs
	loc   map[uint64]uint64   // def ID -> address
}

// BuildDefUniverse scans the grid and records every definition.
func BuildDefUniverse(g *epoch.Grid) *DefUniverse {
	u := &DefUniverse{byLoc: map[uint64]sets.Set{}, loc: map[uint64]uint64{}}
	for l := 0; l < g.NumEpochs(); l++ {
		for t := 0; t < g.NumThreads; t++ {
			b := g.Block(l, trace.ThreadID(t))
			for i, e := range b.Events {
				if !IsDef(e) {
					continue
				}
				id := b.Ref(i).Pack()
				u.loc[id] = e.Addr
				s := u.byLoc[e.Addr]
				if s == nil {
					s = sets.NewSet()
					u.byLoc[e.Addr] = s
				}
				s.Add(id)
			}
		}
	}
	return u
}

// DefsOf returns the set of definitions of address a (nil if none).
func (u *DefUniverse) DefsOf(a uint64) sets.Set { return u.byLoc[a] }

// LocOf returns the address a definition writes.
func (u *DefUniverse) LocOf(id uint64) uint64 { return u.loc[id] }

// NumDefs returns the total number of definitions.
func (u *DefUniverse) NumDefs() int { return len(u.loc) }

// DefEffect returns the gen/kill effect of the instruction at ref for
// reaching definitions: it generates its own def ID and kills every other
// definition of the same address.
func (u *DefUniverse) DefEffect(ref trace.Ref, e trace.Event) GenKill {
	if !IsDef(e) {
		return GenKill{}
	}
	id := ref.Pack()
	kill := sets.NewSet()
	if all := u.byLoc[e.Addr]; all != nil {
		kill = all.Clone()
		kill.Remove(id)
	}
	return GenKill{Gen: sets.NewSet(id), Kill: kill}
}

// BlockDefEffects returns the per-instruction effects of a block.
func (u *DefUniverse) BlockDefEffects(b *epoch.Block) []GenKill {
	out := make([]GenKill, len(b.Events))
	for i, e := range b.Events {
		out[i] = u.DefEffect(b.Ref(i), e)
	}
	return out
}

// SeqReachingDefs runs sequential reaching definitions over an ordered
// sequence of (ref, event) pairs and returns GEN(O): the definitions live at
// the end of the ordering (the last writer of each address).
func SeqReachingDefs(refs []trace.Ref, evs []trace.Event) sets.Set {
	last := map[uint64]uint64{}
	for i, e := range evs {
		if IsDef(e) {
			last[e.Addr] = refs[i].Pack()
		}
	}
	out := sets.NewSet()
	for _, id := range last {
		out.Add(id)
	}
	return out
}

// ExprUniverse interns the expressions occurring in a grid. An expression is
// identified by its operand addresses (order-sensitive, matching the paper's
// syntactic expressions like a+b); unary expressions use one operand.
type ExprUniverse struct {
	ids      map[[2]uint64]uint64 // (src1, src2+1 or 0) -> expr ID
	operands [][2]uint64          // expr ID -> operands
	byOp     map[uint64]sets.Set  // operand address -> expr IDs using it
}

const noOperand = ^uint64(0)

// BuildExprUniverse scans a grid for expressions (AssignUn/AssignBin).
func BuildExprUniverse(g *epoch.Grid) *ExprUniverse {
	u := &ExprUniverse{ids: map[[2]uint64]uint64{}, byOp: map[uint64]sets.Set{}}
	for l := 0; l < g.NumEpochs(); l++ {
		for t := 0; t < g.NumThreads; t++ {
			for _, e := range g.Block(l, trace.ThreadID(t)).Events {
				switch e.Kind {
				case trace.AssignUn:
					u.intern(e.Src1, noOperand)
				case trace.AssignBin:
					u.intern(e.Src1, e.Src2)
				}
			}
		}
	}
	return u
}

func (u *ExprUniverse) intern(a, b uint64) uint64 {
	key := [2]uint64{a, b}
	if id, ok := u.ids[key]; ok {
		return id
	}
	id := uint64(len(u.operands))
	u.ids[key] = id
	u.operands = append(u.operands, key)
	for _, op := range []uint64{a, b} {
		if op == noOperand {
			continue
		}
		s := u.byOp[op]
		if s == nil {
			s = sets.NewSet()
			u.byOp[op] = s
		}
		s.Add(id)
	}
	return id
}

// ExprID returns the ID of the expression computed by e, or (0, false) if e
// computes none or the expression was never interned.
func (u *ExprUniverse) ExprID(e trace.Event) (uint64, bool) {
	var key [2]uint64
	switch e.Kind {
	case trace.AssignUn:
		key = [2]uint64{e.Src1, noOperand}
	case trace.AssignBin:
		key = [2]uint64{e.Src1, e.Src2}
	default:
		return 0, false
	}
	id, ok := u.ids[key]
	return id, ok
}

// NumExprs returns the number of distinct expressions.
func (u *ExprUniverse) NumExprs() int { return len(u.operands) }

// Using returns the expressions that have address a as an operand.
func (u *ExprUniverse) Using(a uint64) sets.Set { return u.byOp[a] }

// ExprEffect returns the gen/kill effect of an event for reaching (available)
// expressions: computing an expression generates it; defining an address
// kills every expression that uses the address. An assignment x := f(..., x)
// kills its own expression (the kill follows the gen, as in classic
// available-expressions).
func (u *ExprUniverse) ExprEffect(e trace.Event) GenKill {
	var gk GenKill
	if id, ok := u.ExprID(e); ok {
		gk.Gen = sets.NewSet(id)
	}
	if IsDef(e) {
		if used := u.byOp[e.Addr]; used != nil {
			gk.Kill = used.Clone()
			// Kill overrides gen for self-invalidating assignments.
			if gk.Gen != nil {
				for id := range gk.Gen {
					if gk.Kill.Has(id) {
						gk.Gen.Remove(id)
					}
				}
			}
		}
	}
	return gk
}

// BlockExprEffects returns the per-instruction expression effects of a block.
func (u *ExprUniverse) BlockExprEffects(b *epoch.Block) []GenKill {
	out := make([]GenKill, len(b.Events))
	for i, e := range b.Events {
		out[i] = u.ExprEffect(e)
	}
	return out
}

// SeqAvailExprs runs sequential available ("reaching") expressions over an
// event sequence, returning the expressions available at the end.
func (u *ExprUniverse) SeqAvailExprs(evs []trace.Event) sets.Set {
	avail := sets.NewSet()
	for _, e := range evs {
		gk := u.ExprEffect(e)
		if gk.Kill != nil {
			avail.RemoveAll(gk.Kill)
		}
		if gk.Gen != nil {
			avail.AddAll(gk.Gen)
		}
	}
	return avail
}

// BlockSummary is the standard sequential GEN/KILL summary of a block: GEN =
// facts generated and surviving to the block's end, KILL = facts killed and
// not regenerated afterwards.
func BlockSummary(effects []GenKill) GenKill {
	gen := sets.NewSet()
	kill := sets.NewSet()
	for _, gk := range effects {
		if gk.Kill != nil {
			gen.RemoveAll(gk.Kill)
			kill.AddAll(gk.Kill)
		}
		if gk.Gen != nil {
			kill.RemoveAll(gk.Gen)
			gen.AddAll(gk.Gen)
		}
	}
	return GenKill{Gen: gen, Kill: kill}
}
