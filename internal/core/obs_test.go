package core_test

// Telemetry differential tests: attaching a registry and a trace recorder
// must not change a single analysis outcome — instrumented and
// uninstrumented runs produce identical Results — while the registry's
// counters must agree exactly with the Result, and the recorded spans must
// cover every (epoch, thread, stage).

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/trace"
)

func TestObsDifferential(t *testing.T) {
	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			tr := randomTrace(rng, 5)
			g, err := epoch.ChunkByCount(tr, 4)
			if err != nil {
				t.Fatal(err)
			}
			T := g.NumThreads
			L := g.NumEpochs()

			plain, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}

			reg := obs.New()
			rec := obs.NewTraceRecorder()
			inst, err := (&core.Driver{LG: mk(), Parallel: true, Obs: reg, Trace: rec}).
				RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(inst.Reports, plain.Reports) {
				t.Error("instrumented run changed the reports")
			}
			if !reflect.DeepEqual(inst.FinalSOS, plain.FinalSOS) {
				t.Error("instrumented run changed the final SOS")
			}
			if inst.Epochs != plain.Epochs || inst.Events != plain.Events {
				t.Errorf("instrumented epochs/events %d/%d, want %d/%d",
					inst.Epochs, inst.Events, plain.Epochs, plain.Events)
			}

			// The registry agrees with the Result exactly.
			if got := reg.Counter(obs.MetricEpochs).Value(); got != int64(inst.Epochs) {
				t.Errorf("driver.epochs = %d, want %d", got, inst.Epochs)
			}
			if got := reg.Counter(obs.MetricEvents).Value(); got != int64(inst.Events) {
				t.Errorf("driver.events = %d, want %d", got, inst.Events)
			}
			if got := reg.Counter(obs.MetricBlocks).Value(); got != int64(inst.Epochs*T) {
				t.Errorf("driver.blocks = %d, want %d", got, inst.Epochs*T)
			}
			var reported int64
			reg.Each(func(name string, m any) {
				if c, ok := m.(*obs.Counter); ok && strings.HasPrefix(name, obs.ReportsPrefix) {
					reported += c.Value()
				}
			})
			if reported != int64(len(inst.Reports)) {
				t.Errorf("per-code report counters sum to %d, want %d", reported, len(inst.Reports))
			}

			// Stage coverage: every block gets a first- and second-pass
			// observation, every epoch an SOS update (including the two
			// trailing updates, minus the l==0 bottom).
			if got := reg.Histogram(obs.MetricFirstPassNs).Count(); got != int64(L*T) {
				t.Errorf("first-pass observations = %d, want %d", got, L*T)
			}
			if got := reg.Histogram(obs.MetricSecondPassNs).Count(); got != int64(L*T) {
				t.Errorf("second-pass observations = %d, want %d", got, L*T)
			}
			if got := reg.Histogram(obs.MetricSOSUpdateNs).Count(); got != int64(L) {
				t.Errorf("sos-update observations = %d, want %d", got, L)
			}
			// Spans: one per stage observation (decode spans only appear on
			// wire sources; GridRows replay is timed too).
			wantSpans := int64(2*L*T + L)
			if got := int64(rec.NumSpans()); got < wantSpans {
				t.Errorf("recorded %d spans, want ≥ %d", got, wantSpans)
			}

			// Run: same differential property.
			plainB := (&core.Driver{LG: mk(), Parallel: true}).Run(g)
			regB := obs.New()
			instB := (&core.Driver{LG: mk(), Parallel: true, Obs: regB}).Run(g)
			if !reflect.DeepEqual(instB.Reports, plainB.Reports) ||
				!reflect.DeepEqual(instB.FinalSOS, plainB.FinalSOS) {
				t.Error("instrumented Run changed the outcome")
			}
			if got := regB.Counter(obs.MetricEpochs).Value(); got != int64(L) {
				t.Errorf("Run driver.epochs = %d, want %d", got, L)
			}
		})
	}
}

// TestObsTickCounters pins driver.ticks.inline and driver.ticks.fanout on
// grids of known row sizes: tick by tick, an adaptive Parallel driver puts
// exactly the ticks that read tickGrain·T events on its workers, a serial
// driver runs every tick inline (a pinned schedule has no workers to use),
// and the pinned schedules do what they say. The wing-fold counters are
// work counts, not timings: every schedule folds each epoch row once and
// writes the same runs.
func TestObsTickCounters(t *testing.T) {
	const T = 4
	for _, tc := range straddleCases {
		g := straddleGrid(t, T, tc.sizes, 7)
		foldOps := map[string]int64{}
		for _, cfg := range []struct {
			name     string
			parallel bool
			sched    core.TickSchedule
			fanout   func(tick int) bool
		}{
			{"adaptive", true, core.ScheduleAdaptive, func(k int) bool { return tc.fanout[k] }},
			{"inline", true, core.ScheduleInline, func(int) bool { return false }},
			{"fanout", true, core.ScheduleFanout, func(int) bool { return true }},
			{"serial", false, core.ScheduleFanout, func(int) bool { return false }},
		} {
			reg := obs.New()
			d := &core.Driver{LG: lifeguards["addrcheck"](), Parallel: cfg.parallel, Obs: reg}
			core.SetTickSchedule(d, cfg.sched)
			inc, err := d.NewIncremental(T)
			if err != nil {
				t.Fatal(err)
			}
			inline, fanout := reg.Counter(obs.MetricTicksInline), reg.Counter(obs.MetricTicksFanout)
			var wantIn, wantFan int64
			check := func(tick int) {
				if cfg.fanout(tick) {
					wantFan++
				} else {
					wantIn++
				}
				if inline.Value() != wantIn || fanout.Value() != wantFan {
					t.Fatalf("%s %s tick %d: inline/fanout = %d/%d, want %d/%d",
						tc.name, cfg.name, tick, inline.Value(), fanout.Value(), wantIn, wantFan)
				}
			}
			for l, row := range g.Blocks {
				if _, err := inc.FeedEpoch(row); err != nil {
					t.Fatal(err)
				}
				check(l)
			}
			if _, err := inc.Finish(); err != nil {
				t.Fatal(err)
			}
			check(len(g.Blocks))
			inc.Close()
			if rows := reg.Counter(obs.MetricWingFoldRows).Value(); rows != int64(len(g.Blocks)) {
				t.Errorf("%s %s: %s = %d, want %d (one per epoch)", tc.name, cfg.name, obs.MetricWingFoldRows, rows, len(g.Blocks))
			}
			foldOps[cfg.name] = reg.Counter(obs.MetricWingFoldOps).Value()
		}
		if foldOps["serial"] == 0 {
			t.Errorf("%s: the serial run counted no %s", tc.name, obs.MetricWingFoldOps)
		}
		for name, ops := range foldOps {
			if ops != foldOps["serial"] {
				t.Errorf("%s: %s = %d under %s, %d serial", tc.name, obs.MetricWingFoldOps, ops, name, foldOps["serial"])
			}
		}
	}
}

// TestObsSOSSize checks the StateSizer plumbing: a lifeguard whose SOS has
// a size measure reports a non-trivial peak on a workload that accumulates
// state.
func TestObsSOSSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(rng, 4)
	g, err := epoch.ChunkByCount(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for lgName, mk := range lifeguards {
		lg := mk()
		if _, ok := lg.(core.StateSizer); !ok {
			t.Errorf("%s does not implement core.StateSizer", lgName)
			continue
		}
		reg := obs.New()
		if _, err := (&core.Driver{LG: lg, Parallel: true, Obs: reg}).RunStream(epoch.NewGridRows(g)); err != nil {
			t.Fatal(err)
		}
		peak := reg.Gauge(obs.MetricSOSPeak).Value()
		cur := reg.Gauge(obs.MetricSOSSize).Value()
		if cur > peak {
			t.Errorf("%s: sos.size %d exceeds sos.peak_size %d", lgName, cur, peak)
		}
	}
}

// errorSource yields n good epochs and then fails, for error-context tests.
type errorSource struct {
	T    int
	n    int
	next int
	err  error
}

func (s *errorSource) NumThreads() int { return s.T }

func (s *errorSource) NextEpoch() ([]*epoch.Block, error) {
	if s.next >= s.n {
		return nil, s.err
	}
	row := make([]*epoch.Block, s.T)
	for t := range row {
		row[t] = &epoch.Block{Epoch: s.next, Thread: trace.ThreadID(t)}
	}
	s.next++
	return row, nil
}

// TestStreamErrorContext pins the satellite requirement: malformed-stream
// failures carry the epoch index (and thread id where applicable) so they
// are diagnosable.
func TestStreamErrorContext(t *testing.T) {
	base := errors.New("frame rot")
	for _, parallel := range []bool{false, true} {
		src := &errorSource{T: 3, n: 5, err: base}
		_, err := (&core.Driver{LG: lifeguards["addrcheck"](), Parallel: parallel}).RunStream(src)
		if err == nil {
			t.Fatal("no error from failing source")
		}
		if !errors.Is(err, base) {
			t.Errorf("error chain lost the cause: %v", err)
		}
		if !strings.Contains(err.Error(), "epoch 5") {
			t.Errorf("error lacks the failing epoch index: %v", err)
		}
	}

	// A mislabeled block names both epoch and thread.
	bad := &relabelSource{errorSource{T: 2, n: 3, err: io.EOF}}
	_, err := (&core.Driver{LG: lifeguards["addrcheck"]()}).RunStream(bad)
	if err == nil || !strings.Contains(err.Error(), "epoch 1") || !strings.Contains(err.Error(), "thread 1") {
		t.Errorf("mislabeled block error lacks epoch/thread context: %v", err)
	}
}

// relabelSource corrupts the thread label of block (1, 1).
type relabelSource struct{ errorSource }

func (s *relabelSource) NextEpoch() ([]*epoch.Block, error) {
	row, err := s.errorSource.NextEpoch()
	if err == nil && s.next == 2 { // just produced epoch 1
		row[1].Thread = 0
	}
	return row, err
}
