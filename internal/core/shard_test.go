package core

import (
	"reflect"
	"sync"
	"testing"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
)

// The driver owns the sharded containers (shard.go): these tests pin the
// piece views, and that a sharded lifeguard's UpdateSOS, Recycle and
// StateSize only ever see unsharded pieces.

type pieceSum struct{ id int }
type pieceState struct{ gen int }

func TestPieceViews(t *testing.T) {
	const K = 3
	sharded := func(base int) *ShardedSummary {
		ss := &ShardedSummary{Pieces: make([]Summary, K)}
		for k := range ss.Pieces {
			ss.Pieces[k] = &pieceSum{id: base + k}
		}
		return ss
	}
	if got := PieceRow(nil, 1); got != nil {
		t.Errorf("PieceRow(nil) = %v, want nil", got)
	}
	row := []Summary{sharded(10), nil, sharded(30)}
	for k := 0; k < K; k++ {
		want := []Summary{&pieceSum{id: 10 + k}, nil, &pieceSum{id: 30 + k}}
		if got := PieceRow(row, k); !reflect.DeepEqual(got, want) {
			t.Errorf("PieceRow(row, %d) = %v, want %v", k, got, want)
		}
	}

	sos := ShardedState{&pieceState{gen: 0}, &pieceState{gen: 1}, &pieceState{gen: 2}}
	for _, tc := range []struct {
		name      string
		head, own Summary
	}{
		{"no head, no own", nil, nil},
		{"head only (first pass)", sharded(50), nil},
		{"head and own (second pass)", sharded(50), sharded(60)},
		{"own only (epoch 0 second pass)", nil, sharded(60)},
	} {
		ctx := PassContext{SOS: sos, Head: tc.head, Own: tc.own,
			Epoch1Back: row, Sharding: &Sharding{k: K}}
		ctx.WingAggs[1] = "agg"
		for k := 0; k < K; k++ {
			c := ctx.Piece(k)
			if c.SOS != sos[k] {
				t.Errorf("%s: Piece(%d).SOS = %v, want piece %d", tc.name, k, c.SOS, k)
			}
			wantHead, wantOwn := Summary(nil), Summary(nil)
			if tc.head != nil {
				wantHead = &pieceSum{id: 50 + k}
			}
			if tc.own != nil {
				wantOwn = &pieceSum{id: 60 + k}
			}
			if !reflect.DeepEqual(c.Head, wantHead) || !reflect.DeepEqual(c.Own, wantOwn) {
				t.Errorf("%s: Piece(%d) head/own = %v/%v, want %v/%v", tc.name, k, c.Head, c.Own, wantHead, wantOwn)
			}
			if !reflect.DeepEqual(c.Epoch1Back, PieceRow(row, k)) || c.Epoch2Back != nil {
				t.Errorf("%s: Piece(%d) rows = %v/%v", tc.name, k, c.Epoch1Back, c.Epoch2Back)
			}
			if c.Sharding != nil || c.WingAggs != [3]any{} {
				t.Errorf("%s: Piece(%d) is not a plain unsharded context: %+v", tc.name, k, c)
			}
		}
	}
}

// pieceLG is a sharded lifeguard that does nothing but check what it is
// handed and count what is handed back.
type pieceLG struct {
	t  *testing.T
	mu sync.Mutex
	// made and recycled count every summary and SOS piece by pointer.
	made, recycled map[any]int
}

func (p *pieceLG) note(m map[any]int, v any) {
	p.mu.Lock()
	m[v]++
	p.mu.Unlock()
}

func (p *pieceLG) Name() string   { return "piece" }
func (p *pieceLG) CanShard() bool { return true }
func (p *pieceLG) BottomState() State {
	s := &pieceState{}
	p.note(p.made, s)
	return s
}

func (p *pieceLG) FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	K := ctx.Sharding.K()
	ss := &ShardedSummary{Pieces: make([]Summary, K)}
	ctx.Sharding.Do(func(k int) {
		if _, ok := ctx.Piece(k).SOS.(*pieceState); !ok {
			p.t.Errorf("first pass piece %d: SOS is %T", k, ctx.Piece(k).SOS)
		}
		s := &pieceSum{id: k}
		p.note(p.made, s)
		ss.Pieces[k] = s
	})
	return ss, nil
}

func (p *pieceLG) SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report {
	if _, ok := ctx.Own.(*ShardedSummary); !ok {
		p.t.Errorf("second pass: Own is %T", ctx.Own)
	}
	return nil
}

func (p *pieceLG) UpdateSOS(prev State, prevEpoch, curEpoch []Summary) State {
	ps, ok := prev.(*pieceState)
	if !ok {
		p.t.Errorf("UpdateSOS: prev is %T, want an unsharded piece", prev)
		return prev
	}
	for _, row := range [][]Summary{prevEpoch, curEpoch} {
		for _, s := range row {
			if _, ok := s.(*pieceSum); !ok {
				p.t.Errorf("UpdateSOS: row entry is %T, want an unsharded piece", s)
			}
		}
	}
	s := &pieceState{gen: ps.gen + 1}
	p.note(p.made, s)
	return s
}

func (p *pieceLG) MergeSOS(pieces []State) State {
	sum := 0
	for _, s := range pieces {
		sum += s.(*pieceState).gen
	}
	return sum
}

func (p *pieceLG) Recycle(dead any) {
	switch dead.(type) {
	case *pieceSum, *pieceState:
		p.note(p.recycled, dead)
	default:
		p.t.Errorf("Recycle saw %T, want an unsharded piece", dead)
	}
}

func (p *pieceLG) StateSize(s State) int { return s.(*pieceState).gen + 1 }

func TestShardedRunSeesOnlyPieces(t *testing.T) {
	const K, T, L = 3, 2, 6
	for _, par := range []bool{false, true} {
		lg := &pieceLG{t: t, made: map[any]int{}, recycled: map[any]int{}}
		reg := obs.New()
		d := &Driver{LG: lg, Shards: K, Parallel: par, Obs: reg}
		inc, err := d.NewIncremental(T)
		if err != nil {
			t.Fatal(err)
		}
		g := gridOf(t, T, L, 2)
		for l, row := range g.Blocks {
			if _, err := inc.FeedEpoch(row); err != nil {
				t.Fatal(err)
			}
			// After tick l the current SOS is generation l in every piece
			// (SOS₀ = SOS₁ = ⊥, then one update per tick), and a piece of
			// generation g has size g+1: StateSize sums over pieces.
			wantSize := int64(K * (l + 1))
			events := 0
			for k := l; k > l-streamWindow && k >= 0; k-- {
				for _, b := range g.Blocks[k] {
					events += b.Len()
				}
			}
			if got, want := inc.MemEstimate(), int64(events)*memPerWindowEvent+wantSize*memPerSOSFact; got != want {
				t.Errorf("parallel=%v epoch %d: MemEstimate = %d, want %d", par, l, got, want)
			}
			if l > 0 {
				if got := reg.Gauge(obs.MetricSOSSize).Value(); got != wantSize {
					t.Errorf("parallel=%v epoch %d: sos.size = %d, want %d", par, l, got, wantSize)
				}
			}
		}
		res, err := inc.Finish()
		inc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := K * L; res.FinalSOS != want {
			t.Errorf("parallel=%v: FinalSOS = %v, want %d", par, res.FinalSOS, want)
		}
		// Every piece is handed back exactly once, except the final SOS
		// generation's K pieces, which MergeSOS may retain.
		kept := 0
		for v, n := range lg.made {
			if n != 1 {
				t.Fatalf("piece %v made %d times", v, n)
			}
			switch lg.recycled[v] {
			case 1:
			case 0:
				if s, ok := v.(*pieceState); ok && s.gen == L {
					kept++
					continue
				}
				t.Errorf("parallel=%v: piece %#v never recycled", par, v)
			default:
				t.Errorf("parallel=%v: piece %#v recycled %d times", par, v, lg.recycled[v])
			}
		}
		if kept != K {
			t.Errorf("parallel=%v: %d final SOS pieces kept, want %d", par, kept, K)
		}
		if want := T*L*K + K*(L+2); len(lg.made) != want {
			t.Errorf("parallel=%v: %d pieces made, want %d", par, len(lg.made), want)
		}
	}
}
