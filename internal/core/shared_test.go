package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
)

// TestSharedLifeguardInstance runs two Parallel Incrementals, every tick
// fanned out to their workers, concurrently over one instance of each
// lifeguard, and requires each to report exactly what it reports over an
// instance of its own. A lifeguard value holds only read-only
// configuration (and taintcheck's locked detail cache): everything a run
// writes lives in the summaries and generations its own window owns. Under -race this is also the check that
// no pass or update of one session writes anything the other reads.
func TestSharedLifeguardInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var grids []*epoch.Grid
	for i, tr := range []func() *epoch.Grid{
		func() *epoch.Grid { return chunk(t, randomTrace(rng, 4), 3) },
		func() *epoch.Grid { return chunk(t, wideTrace(rng, 3), 4) },
	} {
		g := tr()
		if g.NumEpochs() < 8 {
			t.Fatalf("grid %d has %d epochs, too few to slide the window", i, g.NumEpochs())
		}
		grids = append(grids, g)
	}
	feed := func(lg core.Lifeguard, g *epoch.Grid) (*core.Result, error) {
		d := &core.Driver{LG: lg, Parallel: true}
		core.SetTickSchedule(d, core.ScheduleFanout)
		inc, err := d.NewIncremental(g.NumThreads)
		if err != nil {
			return nil, err
		}
		defer inc.Close()
		for _, row := range g.Blocks {
			if _, err := inc.FeedEpoch(row); err != nil {
				return nil, err
			}
		}
		return inc.Finish()
	}
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			want := make([]*core.Result, len(grids))
			for i, g := range grids {
				res, err := feed(mk(), g)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res
			}
			for round := 0; round < 4; round++ {
				shared := mk()
				got := make([]*core.Result, len(grids))
				errs := make([]error, len(grids))
				var wg sync.WaitGroup
				for i, g := range grids {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = feed(shared, g)
					}()
				}
				wg.Wait()
				for i := range grids {
					cfg := fmt.Sprintf("round %d grid %d", round, i)
					if errs[i] != nil {
						t.Fatalf("%s: %v", cfg, errs[i])
					}
					if !reflect.DeepEqual(got[i].Reports, want[i].Reports) {
						t.Fatalf("%s: a shared instance changed the reports (%d, want %d)", cfg, len(got[i].Reports), len(want[i].Reports))
					}
					if !reflect.DeepEqual(got[i].FinalSOS, want[i].FinalSOS) {
						t.Fatalf("%s: a shared instance changed the final SOS", cfg)
					}
				}
			}
		})
	}
}
