package core

import (
	"sync"
	"testing"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
)

// The engine's side of the Recycler contract (recycle.go): every summary and
// SOS generation is handed back exactly once when the window slides past it,
// except the final SOS, which the Result keeps; and the size signals built on
// StateSizer are exact at every epoch.

type genSum struct{ id int }
type genState struct{ gen int }

// genLG is a lifeguard that does nothing but number what it makes and count
// what is handed back. A generation-g SOS has size g+1.
type genLG struct {
	mu             sync.Mutex
	made, recycled map[any]int
	nextID         int
}

func (p *genLG) note(m map[any]int, v any) {
	p.mu.Lock()
	m[v]++
	p.mu.Unlock()
}

func (p *genLG) Name() string { return "generations" }
func (p *genLG) BottomState() State {
	s := &genState{}
	p.note(p.made, s)
	return s
}

func (p *genLG) FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	p.mu.Lock()
	s := &genSum{id: p.nextID}
	p.nextID++
	p.mu.Unlock()
	p.note(p.made, s)
	return s, nil
}

func (p *genLG) SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report {
	return nil
}

func (p *genLG) UpdateSOS(prev State, prevEpoch, curEpoch []Summary) State {
	s := &genState{gen: prev.(*genState).gen + 1}
	p.note(p.made, s)
	return s
}

func (p *genLG) Recycle(dead any) { p.note(p.recycled, dead) }

func (p *genLG) StateSize(s State) int { return s.(*genState).gen + 1 }

func TestRunRecyclesEveryValueOnce(t *testing.T) {
	const T, L = 2, 6
	for _, par := range []bool{false, true} {
		lg := &genLG{made: map[any]int{}, recycled: map[any]int{}}
		reg := obs.New()
		d := &Driver{LG: lg, Parallel: par, Obs: reg}
		inc, err := d.NewIncremental(T)
		if err != nil {
			t.Fatal(err)
		}
		g := gridOf(t, T, L, 2)
		for l, row := range g.Blocks {
			if _, err := inc.FeedEpoch(row); err != nil {
				t.Fatal(err)
			}
			// After tick l the current SOS is generation l (SOS₀ = SOS₁ = ⊥,
			// then one update per tick), of size l+1.
			wantSize := int64(l + 1)
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
		final, ok := res.FinalSOS.(*genState)
		if !ok || final.gen != L {
			t.Fatalf("parallel=%v: FinalSOS = %#v, want generation %d", par, res.FinalSOS, L)
		}
		// Every value is handed back exactly once, except the final SOS.
		for v, n := range lg.made {
			if n != 1 {
				t.Fatalf("value %#v made %d times", v, n)
			}
			switch n := lg.recycled[v]; {
			case v == any(final):
				if n != 0 {
					t.Errorf("parallel=%v: final SOS recycled %d times", par, n)
				}
			case n != 1:
				t.Errorf("parallel=%v: %#v recycled %d times, want once", par, v, n)
			}
		}
		for v := range lg.recycled {
			if lg.made[v] == 0 {
				t.Errorf("parallel=%v: Recycle saw %#v, which the lifeguard never made", par, v)
			}
		}
		// T·L summaries, and L+2 SOS generations: SOS₀, SOS₁ and one per
		// update.
		if want := T*L + L + 2; len(lg.made) != want {
			t.Errorf("parallel=%v: %d values made, want %d", par, len(lg.made), want)
		}
	}
}
