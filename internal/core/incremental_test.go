package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
)

// TestIncrementalMatchesRunStream feeds grids tick by tick through the
// push-mode driver — in both retaining and trimmed modes — and checks that
// the concatenated per-feed reports and final counters exactly match the
// serial reference, for every lifeguard.
func TestIncrementalMatchesRunStream(t *testing.T) {
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nthreads := 1 + rng.Intn(6)
				tr := randomTrace(rng, nthreads)
				g, err := epoch.ChunkByCount(tr, []int{1, 3, 8}[rng.Intn(3)])
				if err != nil {
					t.Fatal(err)
				}
				want := referenceRun(mk(), g)

				for _, trim := range []bool{false, true} {
					d := &core.Driver{LG: mk(), Parallel: true}
					var inc *core.Incremental
					if trim {
						inc, err = d.NewIncrementalTrimmed(g.NumThreads)
					} else {
						inc, err = d.NewIncremental(g.NumThreads)
					}
					if err != nil {
						t.Fatal(err)
					}
					var got []core.Report
					for l := 0; l < g.NumEpochs(); l++ {
						if inc.NextEpoch() != l {
							t.Fatalf("NextEpoch = %d before feeding epoch %d", inc.NextEpoch(), l)
						}
						reps, err := inc.FeedEpoch(g.Blocks[l])
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, reps...)
					}
					res, err := inc.Finish()
					if err != nil {
						t.Fatal(err)
					}
					inc.Close()
					if trim {
						got = append(got, res.Reports...)
					} else {
						got = res.Reports
					}
					if !reflect.DeepEqual(got, want.Reports) {
						t.Fatalf("trim=%v seed=%d: reports diverge from the reference\n got: %v\nwant: %v",
							trim, seed, got, want.Reports)
					}
					if res.Epochs != want.Epochs || res.Events != want.Events {
						t.Fatalf("trim=%v seed=%d: epochs/events = %d/%d, want %d/%d",
							trim, seed, res.Epochs, res.Events, want.Epochs, want.Events)
					}
					if !reflect.DeepEqual(res.FinalSOS, want.FinalSOS) {
						t.Fatalf("trim=%v seed=%d: FinalSOS diverges", trim, seed)
					}
				}
			}
		})
	}
}

// TestIncrementalMisuse covers the guarded error paths.
func TestIncrementalMisuse(t *testing.T) {
	d := &core.Driver{LG: addrcheck.New(0)}
	if _, err := d.NewIncremental(0); err == nil {
		t.Error("NewIncremental(0) accepted")
	}
	if _, err := (&core.Driver{LG: addrcheck.New(0), KeepHistory: true}).NewIncrementalTrimmed(2); err == nil {
		t.Error("trimmed mode accepted KeepHistory")
	}

	inc, err := d.NewIncremental(2)
	if err != nil {
		t.Fatal(err)
	}
	// A mislabeled row is rejected before mutating the window.
	bad := []*epoch.Block{{Epoch: 5, Thread: 0}, {Epoch: 5, Thread: 1}}
	if _, err := inc.FeedEpoch(bad); err == nil {
		t.Error("FeedEpoch accepted a mislabeled row")
	}
	row := []*epoch.Block{{Epoch: 0, Thread: 0}, {Epoch: 0, Thread: 1}}
	if _, err := inc.FeedEpoch(row); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.FeedEpoch(row); err == nil {
		t.Error("FeedEpoch accepted rows after Finish")
	}
	if _, err := inc.Finish(); err == nil {
		t.Error("second Finish accepted")
	}
	inc.Close()
	inc.Close() // idempotent
}
