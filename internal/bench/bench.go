// Package bench regenerates every table and figure of the paper's
// evaluation (§7): Table 1 (platform and benchmark parameters), Figure 11
// (relative performance of timesliced vs butterfly vs unmonitored parallel
// execution), Figure 12 (performance sensitivity to epoch size) and
// Figure 13 (false-positive rate sensitivity to epoch size), plus ablations
// beyond the paper (two-phase TaintCheck resolution, idempotent-filter
// effectiveness).
//
// Experiments run at a configurable scale: Scale multiplies both the
// workload size and the epoch sizes, preserving the churn-per-epoch ratios
// that drive the results while keeping runs tractable.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"butterfly/internal/apps"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/interleave"
	"butterfly/internal/lifeguard"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/machine"
	"butterfly/internal/perfmodel"
	"butterfly/internal/timeslice"
)

// Options configures an experiment sweep.
type Options struct {
	// Threads lists the application thread counts (paper: 2, 4, 8).
	Threads []int
	// HSmall and HLarge are the two epoch sizes in instructions per thread
	// (paper: 8K and 64K), before scaling.
	HSmall, HLarge int
	// WorkPerApp is the total operation count per benchmark across all
	// threads, before scaling (strong scaling, as in the paper).
	WorkPerApp int
	// Scale multiplies WorkPerApp and the epoch sizes (1.0 = nominal).
	Scale float64
	// Apps restricts the benchmarks (nil = all six).
	Apps []string
	// Seed drives the machine's deterministic randomness.
	Seed int64
	// Cost is the lifeguard cost model.
	Cost perfmodel.CostModel
	// Parallel runs the butterfly driver with one goroutine per thread.
	Parallel bool
}

// DefaultOptions returns the nominal configuration: the paper's parameters
// at a scale that completes in tens of seconds.
func DefaultOptions() Options {
	return Options{
		Threads:    []int{2, 4, 8},
		HSmall:     8 << 10,
		HLarge:     64 << 10,
		WorkPerApp: 64 << 20,
		Scale:      1.0 / 32,
		Seed:       42,
		Cost:       perfmodel.Default(),
		Parallel:   true,
	}
}

// Experiments holds the two epoch-size sweeps every figure derives from.
type Experiments struct {
	Opts  Options
	Small []*RunMeasurement // h = HSmall
	Large []*RunMeasurement // h = HLarge
}

// Run executes both sweeps once; the Fig11/Fig12/Fig13 accessors then
// derive every figure without re-simulating.
func Run(o Options) (*Experiments, error) {
	small, err := Sweep(o, o.HSmall)
	if err != nil {
		return nil, err
	}
	large, err := Sweep(o, o.HLarge)
	if err != nil {
		return nil, err
	}
	return &Experiments{Opts: o, Small: small, Large: large}, nil
}

func (o Options) apps() ([]apps.App, error) {
	if o.Apps == nil {
		return apps.All, nil
	}
	var out []apps.App
	for _, name := range o.Apps {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

func (o Options) scaled(v int) int {
	s := int(float64(v) * o.Scale)
	if s < 64 {
		s = 64
	}
	return s
}

// RunMeasurement is one benchmark × thread-count × epoch-size execution
// with everything the figures need.
type RunMeasurement struct {
	App     string
	Threads int
	H       int // per-thread epoch size in instructions (scaled)
	SeqCycles,
	ParallelCycles uint64 // unmonitored baselines
	TimeslicedCycles uint64
	ButterflyCycles  uint64
	Lifeguard        perfmodel.ButterflyResult
	// Accuracy.
	FalsePositives, TruePositives, FalseNegatives int
	MemAccesses                                   int
	FPRate                                        float64
	Epochs                                        int
	Events                                        int
	FilterRate                                    float64
	// Memory discipline (DESIGN.md §12), sampled around the butterfly
	// driver run for this cell: high-water live heap above the pre-run
	// baseline, and completed GC cycles the run triggered.
	PeakHeapBytes uint64
	GCCycles      uint32
}

// seqCache caches the sequential-unmonitored baseline per app.
type measureCtx struct {
	o        Options
	seqCache map[string]uint64
}

func newCtx(o Options) *measureCtx { return &measureCtx{o: o, seqCache: map[string]uint64{}} }

// seqBaseline simulates the application on one thread without monitoring.
func (c *measureCtx) seqBaseline(app apps.App) (uint64, error) {
	if v, ok := c.seqCache[app.Name]; ok {
		return v, nil
	}
	p, err := app.Build(apps.Params{Threads: 1, TargetOps: c.o.scaled(c.o.WorkPerApp), Seed: c.o.Seed})
	if err != nil {
		return 0, err
	}
	cfg := machine.Table1Config(1)
	cfg.Seed = c.o.Seed
	cfg.HeartbeatH = 0 // no monitoring, no heartbeats
	res, err := machine.Run(p, cfg)
	if err != nil {
		return 0, err
	}
	c.seqCache[app.Name] = res.Cycles
	return res.Cycles, nil
}

// Measure runs one full experiment cell.
func (c *measureCtx) Measure(app apps.App, threads, h int) (*RunMeasurement, error) {
	o := c.o
	seq, err := c.seqBaseline(app)
	if err != nil {
		return nil, err
	}
	p, err := app.Build(apps.Params{
		Threads:   threads,
		TargetOps: o.scaled(o.WorkPerApp) / threads,
		Seed:      o.Seed,
	})
	if err != nil {
		return nil, err
	}
	cfg := machine.Table1Config(threads)
	cfg.Seed = o.Seed
	cfg.HeartbeatH = o.scaled(h)
	res, err := machine.Run(p, cfg)
	if err != nil {
		return nil, err
	}
	g, err := epoch.ChunkByHeartbeat(res.Trace)
	if err != nil {
		return nil, err
	}

	// Butterfly AddrCheck (heap-only, like the paper's prototype), with the
	// heap sampled during the run so the figures can report GC pressure.
	runtime.GC()
	var memBase runtime.MemStats
	runtime.ReadMemStats(&memBase)
	sampler := startHeapSampler()
	bres := (&core.Driver{LG: addrcheck.New(cfg.HeapBase), Parallel: o.Parallel}).Run(g)
	heapHigh := sampler.stop()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	var peakHeap uint64
	if heapHigh > memBase.HeapAlloc {
		peakHeap = heapHigh - memBase.HeapAlloc
	}

	// Ground truth via the sequential oracle over the actual interleaving.
	items, err := interleave.FromGlobal(g, res.Trace)
	if err != nil {
		return nil, err
	}
	truth := lifeguard.RunOracle(addrcheck.NewOracle(cfg.HeapBase), items)
	cmp := lifeguard.Compare(bres.Reports, truth, res.Trace.MemAccesses())

	// Timesliced baseline.
	ts, err := timeslice.Run(res, g, addrcheck.NewOracle(cfg.HeapBase), o.Cost, cfg.HeapBase)
	if err != nil {
		return nil, err
	}

	// Butterfly performance model; distinct flagged instructions drive the
	// positive-handling cost.
	distinct := len(cmp.FalsePositives) + len(cmp.TruePositives)
	bperf := perfmodel.Butterfly(res, g, distinct, o.Cost, cfg.HeapBase)

	return &RunMeasurement{
		App:              app.Name,
		Threads:          threads,
		H:                o.scaled(h),
		SeqCycles:        seq,
		ParallelCycles:   res.Cycles,
		TimeslicedCycles: ts.Time,
		ButterflyCycles:  bperf.Total,
		Lifeguard:        bperf,
		FalsePositives:   len(cmp.FalsePositives),
		TruePositives:    len(cmp.TruePositives),
		FalseNegatives:   len(cmp.FalseNegatives),
		MemAccesses:      cmp.MemAccesses,
		FPRate:           cmp.FPRate(),
		Epochs:           g.NumEpochs(),
		Events:           g.TotalEvents(),
		FilterRate:       bperf.FilterRate,
		PeakHeapBytes:    peakHeap,
		GCCycles:         memAfter.NumGC - memBase.NumGC,
	}, nil
}

// heapSampler polls runtime.MemStats on its own goroutine and records the
// high-water HeapAlloc. Sampling misses short spikes but suffices for the
// figures' GC-pressure columns, which track growth that persists for the run.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			case <-s.quit:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
				s.done <- peak
				return
			}
		}
	}()
	return s
}

func (s *heapSampler) stop() uint64 {
	close(s.quit)
	return <-s.done
}

// Normalized returns a time normalized to the sequential unmonitored run
// (the paper's y-axis; larger is slower).
func (m *RunMeasurement) Normalized(cycles uint64) float64 {
	if m.SeqCycles == 0 {
		return 0
	}
	return float64(cycles) / float64(m.SeqCycles)
}

// Sweep runs Measure over every app × thread count for one epoch size.
func Sweep(o Options, h int) ([]*RunMeasurement, error) {
	list, err := o.apps()
	if err != nil {
		return nil, err
	}
	ctx := newCtx(o)
	var out []*RunMeasurement
	for _, app := range list {
		for _, t := range o.Threads {
			m, err := ctx.Measure(app, t, h)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%d threads: %w", app.Name, t, err)
			}
			out = append(out, m)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Threads < out[j].Threads
	})
	return out, nil
}
