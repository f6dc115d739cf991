package core

import (
	"strings"
	"testing"

	"butterfly/internal/epoch"
	"butterfly/internal/sets"
)

// panickyLifeguard panics in the first pass of one (epoch, thread) block —
// the minimal misbehaving analysis for containment tests.
type panickyLifeguard struct {
	epoch  int
	thread int
}

func (p *panickyLifeguard) Name() string       { return "panicky" }
func (p *panickyLifeguard) BottomState() State { return sets.NewSet() }
func (p *panickyLifeguard) FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report) {
	if b.Epoch == p.epoch && int(b.Thread) == p.thread {
		panic("lifeguard bug")
	}
	return &countSummary{ref: b.Ref(0), epoch: b.Epoch}, nil
}
func (p *panickyLifeguard) SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report {
	return nil
}
func (p *panickyLifeguard) UpdateSOS(prev, _ State, prevEpoch, curEpoch []Summary) State {
	return prev
}

// TestWorkerPanicContained proves the pipelined driver's containment: a
// lifeguard panicking on a worker goroutine must surface as a *WorkerPanic
// on the FeedEpoch caller — not crash the process, not deadlock the
// barriers — and the driver must still shut down cleanly.
func TestWorkerPanicContained(t *testing.T) {
	g := gridOf(t, 4, 6, 3)
	// The grid is far below tickGrain: pin fan-out so the panic erupts on a
	// worker goroutine.
	d := &Driver{LG: &panickyLifeguard{epoch: 2, thread: 3}, Parallel: true, sched: scheduleFanout}
	inc, err := d.NewIncremental(g.NumThreads)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	if !inc.pipelined() {
		t.Fatal("driver is not pipelined; the test would not cross goroutines")
	}
	for l := 0; l < 2; l++ {
		if _, err := inc.FeedEpoch(g.Blocks[l]); err != nil {
			t.Fatal(err)
		}
	}
	wp := feedExpectingPanic(t, inc, g.Blocks[2])
	if got := wp.Error(); !strings.Contains(got, "lifeguard bug") {
		t.Errorf("WorkerPanic.Error() = %q, want the original panic value", got)
	}
	if len(wp.Stack) == 0 {
		t.Error("WorkerPanic carries no stack")
	}
	// The worker goroutines survived the boxed panic: Close's channel
	// shutdown would hang (and time the test out) if one had died.
	inc.Close()
}

// TestInlineTickPanicSurfaces covers the other side of the grain rule: a
// Parallel driver running a small tick inline panics on the feeding
// goroutine itself, as the serial driver does, and its idle workers still
// shut down.
func TestInlineTickPanicSurfaces(t *testing.T) {
	g := gridOf(t, 4, 6, 3)
	inc, err := (&Driver{LG: &panickyLifeguard{epoch: 0, thread: 1}, Parallel: true}).NewIncremental(g.NumThreads)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != "lifeguard bug" {
				t.Errorf("recovered %v, want the lifeguard's own panic value", r)
			}
		}()
		inc.FeedEpoch(g.Blocks[0]) //nolint:errcheck // panics
	}()
	inc.Close()
}

func feedExpectingPanic(t *testing.T, inc *Incremental, row []*epoch.Block) (wp *WorkerPanic) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FeedEpoch did not panic")
		}
		var ok bool
		if wp, ok = r.(*WorkerPanic); !ok {
			t.Fatalf("panic value is %T, want *WorkerPanic", r)
		}
	}()
	inc.FeedEpoch(row) //nolint:errcheck // panics
	return nil
}
