package core

import (
	"fmt"
	"sync"
	"testing"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
)

// The engine's side of the reuse contract (Lifeguard, core.go): every
// summary and SOS generation that leaves the window arrives once, as
// PassContext.Reuse or as UpdateSOS's dead argument, at the call that builds
// its successor; nothing arrives while it is still inside the window, and
// the final SOS never does. Also: the engine makes each wing aggregate once
// and every fold lands in the right row, and the size signals built on
// StateSizer are exact at every epoch.

type genSum struct{ epoch, thread int }
type genState struct{ idx int }    // SOS_idx
type genAgg struct{ n, epoch int } // n summaries folded, of epoch epoch

// genLG is a lifeguard that does nothing but record what it makes and check
// what is handed back. It builds every value fresh, so identities stay
// unique. SOS_k has size k.
type genLG struct {
	T       int
	fail    func(format string, args ...any)
	bottoms int // SOS₀ and SOS₁ are both bottom states

	mu      sync.Mutex // first and second passes of one epoch run concurrently
	made    map[any]bool
	arrived map[any]int
	aggs    int // EmptyWings calls
}

var _ WingAggregator = (*genLG)(nil)

func newGenLG(T int, fail func(string, ...any)) *genLG {
	return &genLG{T: T, fail: fail, made: map[any]bool{}, arrived: map[any]int{}}
}

func (p *genLG) make(v any) any {
	p.mu.Lock()
	p.made[v] = true
	p.mu.Unlock()
	return v
}

// handBack records that v arrived for reuse, failing unless the lifeguard
// made it and it has not arrived before.
func (p *genLG) handBack(v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.made[v] {
		p.fail("%#v handed back, which the lifeguard never made", v)
	}
	if p.arrived[v]++; p.arrived[v] > 1 {
		p.fail("%#v handed back %d times", v, p.arrived[v])
	}
}

func (p *genLG) Name() string { return "generations" }

func (p *genLG) BottomState() State {
	p.bottoms++
	return p.make(&genState{idx: p.bottoms - 1})
}

func (p *genLG) FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	if ctx.Reuse != nil {
		r := ctx.Reuse.(*genSum)
		p.handBack(r)
		// Block (l−4, t) is the newest summary of thread t outside the
		// window: epochs l−3..l−1 are all still read in this tick.
		if r.epoch != b.Epoch-streamWindow || r.thread != int(b.Thread) {
			p.fail("first pass of (%d,%d) handed block (%d,%d) to reuse", b.Epoch, b.Thread, r.epoch, r.thread)
		}
	} else if b.Epoch >= streamWindow {
		p.fail("first pass of (%d,%d) handed nothing to reuse", b.Epoch, b.Thread)
	}
	return p.make(&genSum{epoch: b.Epoch, thread: int(b.Thread)}), nil
}

func (p *genLG) SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report {
	for k, a := range ctx.WingAggs {
		if a == nil {
			continue
		}
		if g := a.(*genAgg); g.n != p.T || g.epoch != b.Epoch-1+k {
			p.fail("second pass of (%d,%d): wing fold %d covers %d blocks of epoch %d", b.Epoch, b.Thread, k, g.n, g.epoch)
		}
	}
	return nil
}

func (p *genLG) UpdateSOS(prev, dead State, prevEpoch, curEpoch []Summary) State {
	k := prev.(*genState).idx
	if dead != nil {
		p.handBack(dead)
		// SOS_{k−1} was read last by this tick's second pass; SOS_k is
		// prev, still to be read by the next tick's.
		if d := dead.(*genState).idx; d != k-1 {
			p.fail("update of SOS_%d handed back SOS_%d", k, d)
		}
	}
	return p.make(&genState{idx: k + 1})
}

func (p *genLG) StateSize(s State) int { return s.(*genState).idx }

func (p *genLG) EmptyWings() any {
	p.mu.Lock()
	p.aggs++
	p.mu.Unlock()
	return &genAgg{epoch: -1}
}

func (p *genLG) FoldRow(dst any, row []Summary) int {
	a := genAgg{n: len(row), epoch: -1}
	for _, s := range row {
		if e := s.(*genSum).epoch; a.epoch < 0 || e == a.epoch {
			a.epoch = e
		} else {
			p.fail("a row fold mixes epochs %d and %d", a.epoch, e)
		}
	}
	*dst.(*genAgg) = a
	return len(row)
}

// TestReuseContract runs genLG over every driver path — Run, RunStream,
// and Incremental retaining and trimmed, each serial, inline and fanned out
// — and checks what arrived: every summary but the last streamWindow rows,
// and every generation but the last two and the final one.
func TestReuseContract(t *testing.T) {
	const T, L = 3, 9
	g := gridOf(t, T, L, 2)
	incremental := func(trim bool) func(d *Driver) *Result {
		return func(d *Driver) *Result {
			inc, err := d.newIncremental(T, trim)
			if err != nil {
				t.Fatal(err)
			}
			defer inc.Close()
			for l, row := range g.Blocks {
				if _, err := inc.FeedEpoch(row); err != nil {
					t.Fatal(err)
				}
				checkSizes(t, inc, d.Obs, g, l)
			}
			res, err := inc.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	paths := map[string]func(d *Driver) *Result{
		"Run": func(d *Driver) *Result { return d.Run(g) },
		"RunStream": func(d *Driver) *Result {
			res, err := d.RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		"Incremental":        incremental(false),
		"IncrementalTrimmed": incremental(true),
	}
	for name, run := range paths {
		for _, dc := range []struct {
			name     string
			parallel bool
			s        tickSchedule
		}{{"serial", false, scheduleAdaptive}, {"inline", true, scheduleInline}, {"fanout", true, scheduleFanout}} {
			cfg := fmt.Sprintf("%s/%s", name, dc.name)
			lg := newGenLG(T, func(format string, args ...any) { t.Errorf(cfg+": "+format, args...) })
			res := run(&Driver{LG: lg, Parallel: dc.parallel, Obs: obs.New(), sched: dc.s})
			final, ok := res.FinalSOS.(*genState)
			if !ok || final.idx != L+1 {
				t.Fatalf("%s: FinalSOS = %#v, want SOS_%d", cfg, res.FinalSOS, L+1)
			}
			if lg.aggs != streamWindow {
				t.Errorf("%s: %d aggregates made, want %d (one per window row)", cfg, lg.aggs, streamWindow)
			}
			// T·L summaries, and L+2 SOS generations: SOS₀, SOS₁ and one
			// per update.
			if want := T*L + L + 2; len(lg.made) != want {
				t.Errorf("%s: %d values made, want %d", cfg, len(lg.made), want)
			}
			for v := range lg.made {
				var want int
				switch v := v.(type) {
				case *genSum:
					want = b2i(v.epoch < L-streamWindow)
				case *genState:
					want = b2i(v.idx < L-1) // SOS_{L−1}, SOS_L and the final SOS_{L+1} stay
				}
				if got := lg.arrived[v]; got != want {
					t.Errorf("%s: %#v handed back %d times, want %d", cfg, v, got, want)
				}
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkSizes checks the StateSizer signals after tick l: the current SOS is
// SOS_{l+1}, of size l+1.
func checkSizes(t *testing.T, inc *Incremental, reg *obs.Registry, g *epoch.Grid, l int) {
	t.Helper()
	wantSize := int64(l + 1)
	events := 0
	for k := l; k > l-streamWindow && k >= 0; k-- {
		for _, b := range g.Blocks[k] {
			events += b.Len()
		}
	}
	if got, want := inc.MemEstimate(), int64(events)*memPerWindowEvent+wantSize*memPerSOSFact; got != want {
		t.Errorf("epoch %d: MemEstimate = %d, want %d", l, got, want)
	}
	if l > 0 {
		if got := reg.Gauge(obs.MetricSOSSize).Value(); got != wantSize {
			t.Errorf("epoch %d: sos.size = %d, want %d", l, got, wantSize)
		}
	}
}
