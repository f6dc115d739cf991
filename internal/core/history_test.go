package core_test

// Regression guard for the sliding-window retirement logic: every epoch's
// summaries and SOS, as the engine computed them, are epoch for epoch what
// the reference's whole-grid arrays hold. A recorder wrapped around the
// lifeguard keeps them, and recording changes what the engine retains, never
// what it computes. This pins down the ring-buffer window, its slot reuse
// and the trailing SOS updates in stream.go.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
)

// history is what a run computed epoch by epoch: sums[l][t] is block
// (l, t)'s summary as its second pass left it, and sos[l] is SOSₗ.
type history struct {
	sums [][]core.Summary
	sos  []core.State
}

// recorder wraps a lifeguard and records its history as the engine asks for
// each value: the engine asks for SOS₀ and SOS₁ as bottom states, then for
// one UpdateSOS per later generation. It does not implement core.Recycler,
// so the engine recycles nothing and every recorded value stays intact.
type recorder struct {
	core.Lifeguard
	T  int
	mu sync.Mutex // first passes of one epoch run concurrently
	h  history
}

// aggRecorder is a recorder over a lifeguard that aggregates its wings: it
// forwards core.WingAggregator so the engine keeps the folded-wing path.
type aggRecorder struct {
	*recorder
	core.WingAggregator
}

// newRecorder wraps lg for a run over T threads.
func newRecorder(lg core.Lifeguard, T int) (core.Lifeguard, *recorder) {
	r := &recorder{Lifeguard: lg, T: T}
	if wa, ok := lg.(core.WingAggregator); ok {
		return aggRecorder{r, wa}, r
	}
	return r, r
}

func (r *recorder) BottomState() core.State {
	s := r.Lifeguard.BottomState()
	r.h.sos = append(r.h.sos, s)
	return s
}

func (r *recorder) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	s, reps := r.Lifeguard.FirstPass(b, ctx)
	r.mu.Lock()
	for len(r.h.sums) <= b.Epoch {
		r.h.sums = append(r.h.sums, make([]core.Summary, r.T))
	}
	r.h.sums[b.Epoch][b.Thread] = s
	r.mu.Unlock()
	return s, reps
}

func (r *recorder) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	s := r.Lifeguard.UpdateSOS(prev, prevEpoch, curEpoch)
	r.h.sos = append(r.h.sos, s)
	return s
}

// checkHistory compares every recorded SOSₗ and summary against the
// reference. A grid without epochs has no history on either side.
func checkHistory(t *testing.T, name string, got, want history) {
	t.Helper()
	if len(want.sums) == 0 {
		if len(got.sums) != 0 {
			t.Fatalf("%s: summaries recorded for an empty grid", name)
		}
		return
	}
	if !reflect.DeepEqual(got.sos, want.sos) {
		t.Fatalf("%s: SOS history diverges from the reference\n got: %v\nwant: %v", name, got.sos, want.sos)
	}
	if !reflect.DeepEqual(got.sums, want.sums) {
		t.Fatalf("%s: summaries diverge from the reference", name)
	}
}

// TestKeepHistoryEquivalence checks Run's history against the reference,
// serially and with every tick fanned out to the workers. (The name is the
// Driver.KeepHistory knob's, which the recorder replaced.)
func TestKeepHistoryEquivalence(t *testing.T) {
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(100); seed < 106; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tr := randomTrace(rng, 1+rng.Intn(6))
				g, err := epoch.ChunkByCount(tr, 1+rng.Intn(6))
				if err != nil {
					t.Fatal(err)
				}
				_, want := referenceHistory(mk(), g)
				for _, par := range []bool{false, true} {
					plain := (&core.Driver{LG: mk(), Parallel: par}).Run(g)
					lg, rec := newRecorder(mk(), g.NumThreads)
					d := &core.Driver{LG: lg, Parallel: par}
					core.SetTickSchedule(d, core.ScheduleFanout)
					hist := d.Run(g)
					if !reflect.DeepEqual(plain.Reports, hist.Reports) {
						t.Fatalf("seed %d parallel=%v: recording changed the reports", seed, par)
					}
					if !reflect.DeepEqual(plain.FinalSOS, hist.FinalSOS) {
						t.Fatalf("seed %d parallel=%v: recording changed the final SOS", seed, par)
					}
					checkHistory(t, fmt.Sprintf("seed %d parallel=%v", seed, par), rec.h, want)
				}
			}
		})
	}
}

// TestKeepHistoryStreamMatchesBatch checks the pipelined RunStream path's
// history against the reference. (The name predates the removal of the
// batch loop, which used to be the other side of this comparison.)
func TestKeepHistoryStreamMatchesBatch(t *testing.T) {
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tr := randomTrace(rng, 4)
			g, err := epoch.ChunkByCount(tr, 3)
			if err != nil {
				t.Fatal(err)
			}
			lg, rec := newRecorder(mk(), g.NumThreads)
			d := &core.Driver{LG: lg, Parallel: true}
			core.SetTickSchedule(d, core.ScheduleFanout)
			if _, err := d.RunStream(epoch.NewGridRows(g)); err != nil {
				t.Fatal(err)
			}
			_, want := referenceHistory(mk(), g)
			checkHistory(t, "stream", rec.h, want)
		})
	}
}
