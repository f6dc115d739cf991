package core_test

// Regression guard for the sliding-window retirement logic: KeepHistory
// only changes what the Result retains, never what the analysis computes,
// and what it retains is epoch for epoch what the reference's whole-grid
// arrays hold. This pins down the ring-buffer window, its slot reuse and the
// trailing SOS updates in stream.go.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
)

// checkHistory compares every SOSHistory[l] and Summaries[l][t] of an
// unsharded KeepHistory run against the reference.
func checkHistory(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.SOSHistory, want.SOSHistory) {
		t.Fatalf("%s: SOS history diverges from the reference\n got: %v\nwant: %v", name, got.SOSHistory, want.SOSHistory)
	}
	if !reflect.DeepEqual(got.Summaries, want.Summaries) {
		t.Fatalf("%s: summaries diverge from the reference", name)
	}
}

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
				want := referenceRun(mk(), g)
				for _, par := range []bool{false, true} {
					plain := (&core.Driver{LG: mk(), Parallel: par}).Run(g)
					hist := (&core.Driver{LG: mk(), Parallel: par, KeepHistory: true}).Run(g)
					if !reflect.DeepEqual(plain.Reports, hist.Reports) {
						t.Fatalf("seed %d parallel=%v: KeepHistory changed the reports", seed, par)
					}
					if !reflect.DeepEqual(plain.FinalSOS, hist.FinalSOS) {
						t.Fatalf("seed %d parallel=%v: KeepHistory changed the final SOS", seed, par)
					}
					if plain.Summaries != nil || plain.SOSHistory != nil {
						t.Fatalf("seed %d parallel=%v: summaries retained without KeepHistory", seed, par)
					}
					checkHistory(t, fmt.Sprintf("seed %d parallel=%v", seed, par), hist, want)
				}
			}
		})
	}
}

// TestKeepHistoryStreamMatchesBatch checks the pipelined RunStream path's
// retained history against the reference. (The name predates the removal of
// the batch loop, which used to be the other side of this comparison.)
func TestKeepHistoryStreamMatchesBatch(t *testing.T) {
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tr := randomTrace(rng, 4)
			g, err := epoch.ChunkByCount(tr, 3)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := (&core.Driver{LG: mk(), Parallel: true, KeepHistory: true}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			checkHistory(t, "stream", stream, referenceRun(mk(), g))
		})
	}
}
