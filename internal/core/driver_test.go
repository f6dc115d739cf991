package core

import (
	"sync"
	"testing"

	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// countingLifeguard records the driver's scheduling discipline so the
// two-pass contract can be asserted: first pass once per block in epoch
// order, second pass after the whole window's first passes, single-threaded
// SOS updates, correct wing sets. Unlike a real lifeguard it shares mutable
// bookkeeping across blocks, so it locks around it: the driver runs passes
// for different threads concurrently.
type countingLifeguard struct {
	t          *testing.T
	mu         sync.Mutex
	firstPass  map[trace.Ref]int
	secondPass map[trace.Ref]int
	firstSeen  []trace.Ref // order of first-pass calls (sequential mode)
	updates    int
}

type countSummary struct {
	ref   trace.Ref
	epoch int
}

func newCounting(t *testing.T) *countingLifeguard {
	return &countingLifeguard{
		t:          t,
		firstPass:  map[trace.Ref]int{},
		secondPass: map[trace.Ref]int{},
	}
}

func (c *countingLifeguard) Name() string       { return "counting" }
func (c *countingLifeguard) BottomState() State { return sets.NewSet() }
func (c *countingLifeguard) FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	ref := b.Ref(0)
	c.mu.Lock()
	c.firstPass[ref]++
	c.firstSeen = append(c.firstSeen, ref)
	c.mu.Unlock()
	if ctx.SOS == nil {
		c.t.Errorf("nil SOS in first pass of %v", ref)
	}
	if b.Epoch > 0 && ctx.Head == nil {
		c.t.Errorf("missing head for %v", ref)
	}
	if b.Epoch == 0 && ctx.Head != nil {
		c.t.Errorf("unexpected head for epoch-0 block %v", ref)
	}
	return &countSummary{ref: ref, epoch: b.Epoch}, nil
}
func (c *countingLifeguard) SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report {
	ref := b.Ref(0)
	c.mu.Lock()
	c.secondPass[ref]++
	c.mu.Unlock()
	if own, ok := ctx.Own.(*countSummary); !ok || own.ref != ref {
		c.t.Errorf("Own summary wrong for %v", ref)
	}
	for _, w := range wings {
		ws := w.(*countSummary)
		if ws.ref.Thread == b.Thread {
			c.t.Errorf("own thread %d in wings of %v", b.Thread, ref)
		}
		if d := ws.epoch - b.Epoch; d < -1 || d > 1 {
			c.t.Errorf("wing epoch %d outside window of %v", ws.epoch, ref)
		}
	}
	return []Report{{Ref: ref, Code: "visited"}}
}
func (c *countingLifeguard) UpdateSOS(prev, _ State, prevEpoch, curEpoch []Summary) State {
	c.updates++
	return prev
}

func gridOf(t *testing.T, threads, epochs, perBlock int) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(threads)
	for th := 0; th < threads; th++ {
		b.T(trace.ThreadID(th))
		for l := 0; l < epochs; l++ {
			b.Nop(perBlock)
			if l < epochs-1 {
				b.Heartbeat()
			}
		}
	}
	g, err := epoch.ChunkByHeartbeat(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDriverSchedulingContract(t *testing.T) {
	for _, par := range []bool{false, true} {
		g := gridOf(t, 3, 5, 2)
		lg := newCounting(t)
		res := (&Driver{LG: lg, Parallel: par}).Run(g)
		// Every block gets exactly one first and one second pass.
		for l := 0; l < 5; l++ {
			for th := 0; th < 3; th++ {
				ref := trace.Ref{Epoch: l, Thread: trace.ThreadID(th)}
				if lg.firstPass[ref] != 1 {
					t.Errorf("parallel=%v: first pass of %v ran %d times", par, ref, lg.firstPass[ref])
				}
				if lg.secondPass[ref] != 1 {
					t.Errorf("parallel=%v: second pass of %v ran %d times", par, ref, lg.secondPass[ref])
				}
			}
		}
		// One report per block, 15 blocks.
		if len(res.Reports) != 15 {
			t.Errorf("parallel=%v: %d reports, want 15", par, len(res.Reports))
		}
		// SOS updates: epochs 2..6 (through the post-run flush).
		if lg.updates != 5 {
			t.Errorf("parallel=%v: %d SOS updates, want 5", par, lg.updates)
		}
	}
}

func TestDriverReportOrderDeterministicSequential(t *testing.T) {
	g := gridOf(t, 4, 4, 3)
	var first []trace.Ref
	for iter := 0; iter < 3; iter++ {
		lg := newCounting(t)
		res := (&Driver{LG: lg}).Run(g)
		refs := make([]trace.Ref, len(res.Reports))
		for i, r := range res.Reports {
			refs[i] = r.Ref
		}
		if iter == 0 {
			first = refs
			continue
		}
		for i := range refs {
			if refs[i] != first[i] {
				t.Fatalf("sequential driver nondeterministic at report %d", i)
			}
		}
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Ref:    trace.Ref{Epoch: 1, Thread: 2, Index: 3},
		Ev:     trace.Event{Kind: trace.Read, Addr: 0x10, Size: 4},
		Code:   "x.y",
		Detail: "boom",
	}
	s := r.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("Report.String too short: %q", s)
	}
}
