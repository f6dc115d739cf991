package bench

import (
	"fmt"
	"strings"

	"butterfly/internal/machine"
)

// Fig11Row is one bar group of Figure 11: execution time normalized to
// sequential unmonitored execution for the three designs.
type Fig11Row struct {
	App        string
	Threads    int
	Timesliced float64 // "Timesliced Monitoring"
	Butterfly  float64 // "Parallel, Monitoring"
	NoMonitor  float64 // "Parallel, No Monitoring"
	// Memory discipline of the butterfly run (DESIGN.md §12): sampled
	// peak live heap above baseline, and GC cycles completed during the run.
	PeakHeap uint64
	GCCycles uint32
}

// Fig11 derives Figure 11 from the large-epoch sweep (the paper used
// h = 64K for Figure 11).
func (e *Experiments) Fig11() []Fig11Row {
	rows := make([]Fig11Row, 0, len(e.Large))
	for _, m := range e.Large {
		rows = append(rows, Fig11Row{
			App:        m.App,
			Threads:    m.Threads,
			Timesliced: m.Normalized(m.TimeslicedCycles),
			Butterfly:  m.Normalized(m.ButterflyCycles),
			NoMonitor:  m.Normalized(m.ParallelCycles),
			PeakHeap:   m.PeakHeapBytes,
			GCCycles:   m.GCCycles,
		})
	}
	return rows
}

// RenderFig11 prints the Figure 11 series as a text table.
func RenderFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: relative performance (normalized to sequential, unmonitored; lower is faster)\n")
	fmt.Fprintf(&b, "(peak-heap and gc-cycles are measured on the butterfly analysis run itself; DESIGN.md §12)\n")
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %12s %10s %9s\n",
		"benchmark", "threads", "timesliced", "butterfly", "no-monitor", "peak-heap", "gc-cycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %12.2f %12.2f %12.2f %10s %9d\n",
			r.App, r.Threads, r.Timesliced, r.Butterfly, r.NoMonitor, fmtBytes(r.PeakHeap), r.GCCycles)
	}
	return b.String()
}

func fmtBytes(v uint64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// Fig12Row is one group of Figure 12: butterfly performance at the two
// epoch sizes.
type Fig12Row struct {
	App     string
	Threads int
	HSmall  int
	HLarge  int
	// SmallH and LargeH are normalized butterfly times at each epoch size.
	SmallH, LargeH float64
}

// Fig12 derives Figure 12 (performance sensitivity to epoch size).
func (e *Experiments) Fig12() []Fig12Row {
	rows := make([]Fig12Row, 0, len(e.Small))
	for i := range e.Small {
		s, l := e.Small[i], e.Large[i]
		rows = append(rows, Fig12Row{
			App: s.App, Threads: s.Threads,
			HSmall: s.H, HLarge: l.H,
			SmallH: s.Normalized(s.ButterflyCycles),
			LargeH: l.Normalized(l.ButterflyCycles),
		})
	}
	return rows
}

// RenderFig12 prints the Figure 12 series.
func RenderFig12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: butterfly performance sensitivity to epoch size (normalized; lower is faster)\n")
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %9s\n", "benchmark", "threads", "small-h", "large-h", "lg/sm")
	for _, r := range rows {
		ratio := 0.0
		if r.SmallH > 0 {
			ratio = r.LargeH / r.SmallH
		}
		fmt.Fprintf(&b, "%-14s %8d %12.2f %12.2f %9.2f\n", r.App, r.Threads, r.SmallH, r.LargeH, ratio)
	}
	return b.String()
}

// Fig13Row is one point of Figure 13: false positives as a percentage of
// memory accesses at one epoch size.
type Fig13Row struct {
	App            string
	Threads        int
	H              int
	FalsePositives int
	MemAccesses    int
	// RatePercent is 100 × FPs / memory accesses (the paper's log-scale
	// y-axis).
	RatePercent float64
	// FalseNegatives must always be zero (checked by tests).
	FalseNegatives int
}

// Fig13 derives Figure 13 for both epoch sizes.
func (e *Experiments) Fig13() []Fig13Row {
	var rows []Fig13Row
	for _, sweep := range [][]*RunMeasurement{e.Small, e.Large} {
		for _, m := range sweep {
			rows = append(rows, Fig13Row{
				App: m.App, Threads: m.Threads, H: m.H,
				FalsePositives: m.FalsePositives,
				MemAccesses:    m.MemAccesses,
				RatePercent:    100 * m.FPRate,
				FalseNegatives: m.FalseNegatives,
			})
		}
	}
	return rows
}

// RenderFig13 prints the Figure 13 series.
func RenderFig13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: false positives as %% of memory accesses (log-scale in the paper)\n")
	fmt.Fprintf(&b, "%-14s %8s %10s %8s %12s %12s %6s\n", "benchmark", "threads", "h(instrs)", "FPs", "accesses", "FP rate %", "FNs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %10d %8d %12d %12.6f %6d\n",
			r.App, r.Threads, r.H, r.FalsePositives, r.MemAccesses, r.RatePercent, r.FalseNegatives)
	}
	return b.String()
}

// Table1 renders the simulator and benchmark parameters (the paper's
// Table 1), reflecting the actual configuration in use.
func Table1(o Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Simulator and Benchmark Parameters\n\n")
	fmt.Fprintf(&b, "Simulation Parameters\n")
	fmt.Fprintf(&b, "  %-10s %v cores (×2 with lifeguard cores)\n", "Cores", o.Threads)
	fmt.Fprintf(&b, "  %-10s 1 GHz, in-order scalar\n", "Pipeline")
	fmt.Fprintf(&b, "  %-10s 64B\n", "Line size")
	for _, t := range o.Threads {
		cfg := machine.Table1Config(t)
		fmt.Fprintf(&b, "  %-10s %d threads: L1-D %dKB %d-way (%d cyc), L2 %dMB %d-way (%d cyc), mem %d cyc\n",
			"Caches", t,
			cfg.L1Sets*cfg.L1Ways*64/1024, cfg.L1Ways, machine.LatL1Hit,
			cfg.L2Sets*cfg.L2Ways*64/(1<<20), cfg.L2Ways, machine.LatL2Hit, machine.LatMem)
	}
	fmt.Fprintf(&b, "  %-10s h = %d and %d instructions (scaled by %.3g: %d and %d)\n",
		"Epochs", o.HSmall, o.HLarge, o.Scale, o.scaled(o.HSmall), o.scaled(o.HLarge))
	fmt.Fprintf(&b, "\nBenchmarks (synthetic analogs; see DESIGN.md)\n")
	list, _ := o.apps()
	for _, a := range list {
		fmt.Fprintf(&b, "  %-14s %s\n", a.Name, a.Input)
	}
	fmt.Fprintf(&b, "\nWork per benchmark: %d ops total (scaled from %d)\n", o.scaled(o.WorkPerApp), o.WorkPerApp)
	return b.String()
}
