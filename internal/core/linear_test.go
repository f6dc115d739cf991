package core_test

// The linear-history contract of core.Lifeguard: the engine calls UpdateSOS
// once per generation, always on the newest one, and never while a pass is
// running. Lockset's version chain relies on it (a generation hands its
// candidate map on to its successor), and so does every lifeguard that
// builds a generation in the dead one handed back, so every driver path is
// checked here with a wrapper that fails the test on any other call pattern.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
)

// linearLG wraps a lifeguard and calls fail when the engine updates a
// generation twice, updates one that is not the newest, updates while a
// pass runs, or hands back as dead a generation that is not superseded.
// Generations are told apart by identity: storage the lifeguard reuses for
// a new generation counts as a fresh one. The wrapper keeps no values, so
// it passes Reuse and dead on and the lifeguard under test reuses as in
// production.
type linearLG struct {
	core.Lifeguard
	fail    func(format string, args ...any)
	passes  atomic.Int32 // passes running now
	mu      sync.Mutex
	newest  uintptr // the generation BottomState or UpdateSOS returned last
	updated map[uintptr]bool
	retired map[uintptr]bool // generations a newer one superseded
	updates int
}

// newLinear wraps lg, forwarding its WingAggregator, if any, so the engine
// keeps its folded-wing path.
func newLinear(fail func(string, ...any), lg core.Lifeguard) (core.Lifeguard, *linearLG) {
	w := &linearLG{Lifeguard: lg, fail: fail, updated: map[uintptr]bool{}, retired: map[uintptr]bool{}}
	if wa, ok := lg.(core.WingAggregator); ok {
		return struct {
			*linearLG
			core.WingAggregator
		}{w, wa}, w
	}
	return w, w
}

// genID identifies a generation; every lifeguard's State is a pointer or a
// map.
func genID(s core.State) uintptr { return reflect.ValueOf(s).Pointer() }

// born records s as the newest generation.
func (w *linearLG) born(s core.State) core.State {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.retired[w.newest] = true
	w.newest = genID(s)
	delete(w.updated, w.newest)
	delete(w.retired, w.newest)
	return s
}

func (w *linearLG) BottomState() core.State { return w.born(w.Lifeguard.BottomState()) }

func (w *linearLG) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	w.passes.Add(1)
	defer w.passes.Add(-1)
	return w.Lifeguard.FirstPass(b, ctx)
}

func (w *linearLG) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	w.passes.Add(1)
	defer w.passes.Add(-1)
	return w.Lifeguard.SecondPass(b, ctx, wings)
}

func (w *linearLG) UpdateSOS(prev, dead core.State, prevEpoch, curEpoch []core.Summary) core.State {
	w.mu.Lock()
	id := genID(prev)
	switch {
	case w.updated[id]:
		w.fail("UpdateSOS of a generation already updated")
	case id != w.newest:
		w.fail("UpdateSOS of a superseded generation")
	case dead != nil && !w.retired[genID(dead)]:
		w.fail("UpdateSOS handed back a generation that is not superseded")
	}
	if n := w.passes.Load(); n != 0 {
		w.fail("UpdateSOS while %d passes run", n)
	}
	w.updated[id] = true
	w.updates++
	w.mu.Unlock()
	return w.born(w.Lifeguard.UpdateSOS(prev, dead, prevEpoch, curEpoch))
}

// TestLinearSOSHistory runs every driver path under the wrapper: Run and
// RunStream serially and in parallel with inline and fanned-out ticks, and
// Incremental, retaining and trimmed, through Finish. Every path must also
// make exactly one update per epoch.
func TestLinearSOSHistory(t *testing.T) {
	type path struct {
		name string
		run  func(d *core.Driver, g *epoch.Grid) error
	}
	incremental := func(trim bool) func(d *core.Driver, g *epoch.Grid) error {
		return func(d *core.Driver, g *epoch.Grid) error {
			newInc := d.NewIncremental
			if trim {
				newInc = d.NewIncrementalTrimmed
			}
			inc, err := newInc(g.NumThreads)
			if err != nil {
				return err
			}
			defer inc.Close()
			for _, row := range g.Blocks {
				if _, err := inc.FeedEpoch(row); err != nil {
					return err
				}
			}
			_, err = inc.Finish()
			return err
		}
	}
	paths := []path{
		{"Run", func(d *core.Driver, g *epoch.Grid) error { d.Run(g); return nil }},
		{"RunStream", func(d *core.Driver, g *epoch.Grid) error {
			_, err := d.RunStream(epoch.NewGridRows(g))
			return err
		}},
		{"Incremental", incremental(false)},
		{"IncrementalTrimmed", incremental(true)},
	}
	drivers := []struct {
		name     string
		parallel bool
		s        core.TickSchedule
	}{
		{"serial", false, core.ScheduleAdaptive},
		{"inline", true, core.ScheduleInline},
		{"fanout", true, core.ScheduleFanout},
	}
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				g, err := epoch.ChunkByCount(randomTrace(rng, 1+rng.Intn(5)), 1+rng.Intn(5))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range paths {
					for _, dc := range drivers {
						lg, w := newLinear(t.Errorf, mk())
						d := &core.Driver{LG: lg, Parallel: dc.parallel}
						core.SetTickSchedule(d, dc.s)
						cfg := fmt.Sprintf("seed %d %s/%s", seed, p.name, dc.name)
						if err := p.run(d, g); err != nil {
							t.Fatalf("%s: %v", cfg, err)
						}
						if w.updates != g.NumEpochs() {
							t.Errorf("%s: %d updates over %d epochs", cfg, w.updates, g.NumEpochs())
						}
					}
				}
			}
		})
	}
}

// TestLinearWrapperCatchesMisuse checks the wrapper itself: a second update
// of one generation, an update of a superseded one and a dead generation
// that was never superseded all fail it.
func TestLinearWrapperCatchesMisuse(t *testing.T) {
	for _, misuse := range []string{"twice", "superseded", "live-dead"} {
		var failures []string
		lg, _ := newLinear(func(format string, args ...any) {
			failures = append(failures, fmt.Sprintf(format, args...))
		}, lifeguards["addrcheck"]())
		s0 := lg.BottomState()
		s1 := lg.UpdateSOS(s0, nil, nil, nil)
		switch misuse {
		case "twice":
			lg.UpdateSOS(s0, nil, nil, nil)
		case "superseded":
			lg.BottomState() // a newer generation supersedes s1
			lg.UpdateSOS(s1, nil, nil, nil)
		default:
			lg.UpdateSOS(s1, lifeguards["addrcheck"]().BottomState(), nil, nil)
		}
		if len(failures) != 1 {
			t.Errorf("%s: the wrapper reported %q, want one failure", misuse, failures)
		}
	}
}
