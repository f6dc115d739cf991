// Package core implements the butterfly analysis framework of
// "Butterfly Analysis: Adapting Dataflow Analysis to Dynamic Parallel
// Monitoring" (ASPLOS 2010).
//
// The framework analyzes a Grid of uncertainty epochs over a sliding window
// of three epochs. For a body block (l, t) the head is (l−1, t), the tail is
// (l+1, t), and the wings are blocks (l−1..l+1, t') for t' ≠ t. Instructions
// in the wings are potentially concurrent with the body; instructions two or
// more epochs apart are strictly ordered. State summarizing the strictly
// ordered past is the Strongly Ordered State (SOS); each block additionally
// sees a Local SOS (LSOS) that folds in its own head.
//
// Lifeguards run as two-pass algorithms (§4.3):
//
//	pass 1: per-block local analysis against the LSOS; produces a summary
//	        (the block's GEN/KILL plus its SIDE-OUT facts).
//	meet:   each body combines the summaries of its wings (SIDE-IN).
//	pass 2: per-block re-analysis with wing state; lifeguard checks fire.
//	update: the epoch's net effect (GENₗ/KILLₗ) advances the SOS.
//
// The Driver schedules these steps, owns the SOS (single writer), and — in
// parallel mode — runs each pass with one persistent worker per thread
// separated by barriers, mirroring the paper's implementation. One engine
// executes the schedule: the sliding-window streamState (stream.go) behind
// Incremental, which is fed one epoch row at a time and retains only the
// window, so an unbounded trace can be monitored in bounded memory. RunStream
// pulls the rows from a BlockSource and overlaps decoding with analysis; Run
// feeds the rows of a fully materialized epoch.Grid. Results are a function
// of the rows alone, not of how they arrive or how the passes are scheduled.
package core

import (
	"fmt"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/trace"
)

// State is lifeguard-defined strongly ordered state (e.g. a fact set for
// reaching definitions, an interval set for AddrCheck). Values handed to the
// driver are owned by it; lifeguards must not retain and mutate them.
type State any

// Summary is the lifeguard-defined first-pass block summary: whatever the
// lifeguard needs to expose a block to the wings of other butterflies
// (SIDE-OUT sets) plus its local GEN/KILL for epoch summarization.
type Summary any

// Report is one flagged condition (an error or a potential error).
type Report struct {
	// Ref names the instruction that triggered the report.
	Ref trace.Ref
	// Ev is the triggering event.
	Ev trace.Event
	// Code is a stable, machine-readable condition name
	// (e.g. "addrcheck.unallocated-access").
	Code string
	// Detail is a human-readable explanation.
	Detail string
}

func (r Report) String() string {
	return fmt.Sprintf("%s at %v [%v]: %s", r.Code, r.Ref, r.Ev, r.Detail)
}

// PassContext carries the strongly ordered inputs available to a pass over
// block (l, t).
type PassContext struct {
	// SOS is SOSₗ — state from instructions at least two epochs back.
	SOS State
	// Head is the summary of block (l−1, t), nil when l == 0.
	Head Summary
	// Epoch1Back holds the summaries of all blocks of epoch l−1 (nil when
	// l == 0); Epoch1Back[t'] is block (l−1, t').
	Epoch1Back []Summary
	// Epoch2Back holds the summaries of all blocks of epoch l−2 (nil when
	// l < 2). The LSOS equations need them: the head can interleave with
	// epoch l−2 of other threads.
	Epoch2Back []Summary
	// Own is the block's own first-pass summary. It is set only during the
	// second pass, where lifeguards such as TaintCheck record per-block
	// conclusions (LASTCHECK) that the later SOS update consumes. A block's
	// Own summary is never read concurrently by other threads' passes.
	Own Summary
	// WingAggs holds pre-folded wing aggregates when the lifeguard
	// implements WingAggregator: WingAggs[k] is the fold of epoch row
	// l−1+k's summaries excluding the body's own thread, or nil where the
	// window is clipped at a grid edge. WingAggs[1] (the body's own row,
	// which always exists) is non-nil exactly when aggregation is active.
	// Set only during the second pass; the wings slice is still passed.
	WingAggs [3]any
}

// WingAggregator is an optional Lifeguard extension. The driver's naive
// wing walk re-folds the same epoch row once per body — O(T²) summary
// folds per epoch. A lifeguard whose wing meet is commutative and
// associative can implement WingAggregator; the driver then folds each row
// once into per-thread exclusive aggregates (prefix/suffix folds, O(T)
// AddWing calls per row) and hands them to SecondPass via
// PassContext.WingAggs. All three methods must return fresh aggregates and
// leave their arguments unmodified: the driver retains and reuses
// intermediate folds across calls.
type WingAggregator interface {
	// EmptyWings returns the fold of zero wing summaries.
	EmptyWings() any
	// AddWing returns agg extended with summary s.
	AddWing(agg any, s Summary) any
	// MergeWings returns the fold of two aggregates.
	MergeWings(a, b any) any
}

// exclAggRow folds one epoch row into per-thread exclusive aggregates:
// out[t] covers row[tt] for every tt ≠ t. A prefix fold and a running
// suffix fold give every exclusion in O(T) AddWing/MergeWings calls.
//
// out and pre are optional scratch slices, reused when their capacity
// allows. rec, when non-nil, receives every intermediate fold once the row
// is built: the WingAggregator contract guarantees MergeWings returns fresh
// aggregates, so the returned row never aliases the recycled prefixes and
// suffixes.
func exclAggRow(wa WingAggregator, row []Summary, out, pre []any, rec Recycler) []any {
	T := len(row)
	if cap(out) >= T {
		out = out[:T]
	} else {
		out = make([]any, T)
	}
	if cap(pre) >= T {
		pre = pre[:T]
	} else {
		pre = make([]any, T)
	}
	pre[0] = wa.EmptyWings()
	for i := 0; i+1 < T; i++ {
		pre[i+1] = wa.AddWing(pre[i], row[i])
	}
	suf := wa.EmptyWings()
	for t := T - 1; t >= 0; t-- {
		out[t] = wa.MergeWings(pre[t], suf)
		if t > 0 {
			old := suf
			suf = wa.AddWing(suf, row[t])
			if rec != nil {
				rec.Recycle(old)
			}
		}
	}
	if rec != nil {
		rec.Recycle(suf)
		for _, a := range pre {
			rec.Recycle(a)
		}
	}
	for i := range pre {
		pre[i] = nil
	}
	return out
}

// Lifeguard is implemented by a butterfly analysis. The driver guarantees:
// FirstPass runs exactly once per block, in epoch order, after the SOS for
// the block's epoch is final; SecondPass runs after FirstPass has completed
// for every block of epochs l−1, l, l+1; UpdateSOS runs on a single
// goroutine. Within one epoch, FirstPass (and SecondPass) calls for
// different threads may run concurrently, so they must not share mutable
// state beyond the lifeguard's read-only configuration.
type Lifeguard interface {
	// Name identifies the lifeguard in reports and tooling.
	Name() string

	// BottomState returns the initial SOS (SOS₀ = SOS₁ = ⊥).
	BottomState() State

	// FirstPass analyzes block b locally and returns its summary.
	FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report)

	// SecondPass re-analyzes block b with the wing summaries and performs
	// the lifeguard's checks. wings holds the summaries of blocks
	// (l−1..l+1, t' ≠ t), clipped at the grid edges.
	SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report

	// UpdateSOS computes SOS_{l+2} = GENₗ ∪ (SOS_{l+1} − KILLₗ), where the
	// epoch summary GENₗ/KILLₗ spans the block summaries of epochs l−1
	// (prevEpoch, nil when l == 0) and l (curEpoch), per §5.1.1/§5.2.
	UpdateSOS(prev State, prevEpoch, curEpoch []Summary) State
}

// Driver configures a lifeguard run. Run, RunStream and NewIncremental are
// three ways of delivering epoch rows to the same engine.
type Driver struct {
	// LG is the lifeguard to run.
	LG Lifeguard
	// Parallel runs each pass with one goroutine per thread, separated by
	// barriers (the paper's lifeguard threads), for every tick that reads
	// at least a fixed number of events per thread; smaller ticks run
	// inline (DESIGN.md §8). When false everything runs on the calling
	// goroutine, which is deterministic and simpler to debug.
	Parallel bool
	// Shards is inert: nothing reads it. The engine's only parallelism is the
	// T-wide row of blocks (DESIGN.md §11).
	//
	// Deprecated: address sharding was removed; the field remains so
	// existing callers compile.
	Shards int
	// Obs, when non-nil, receives run telemetry: per-stage latency
	// histograms, epoch/event/report counters, window and SOS sizes
	// (metric names in internal/obs, semantics in DESIGN.md §9). Nil keeps
	// the hot paths free of instrumentation cost; instrumented and
	// uninstrumented runs produce identical Results.
	Obs *obs.Registry
	// Trace, when non-nil, records one span per (epoch, thread, stage) for
	// Chrome trace-event export (obs.TraceRecorder.WriteJSON), making the
	// pipelined F(l)/S(l−1)/SOS overlap visible in Perfetto.
	Trace *obs.TraceRecorder

	// sched overrides the grain-adaptive tick schedule of a Parallel
	// driver; only core's tests set it.
	sched tickSchedule
}

// Result is the outcome of a run.
type Result struct {
	// Reports holds all reports in (epoch, pass, thread, instruction) order.
	Reports []Report
	// Epochs and Events count the analyzed work.
	Epochs, Events int
	// FinalSOS is the SOS after the last epoch's update.
	FinalSOS State
}

// Run analyzes a fully materialized grid by feeding its rows through an
// Incremental. The rows stay caller-owned: no row recycler is registered, so
// the same grid can be analyzed again.
func (d *Driver) Run(g *epoch.Grid) *Result {
	if g.NumThreads == 0 {
		return &Result{Epochs: g.NumEpochs(), Events: g.TotalEvents(), FinalSOS: d.LG.BottomState()}
	}
	inc, err := d.NewIncremental(g.NumThreads)
	if err != nil {
		panic(err)
	}
	defer inc.Close()
	for _, row := range g.Blocks {
		// Only a malformed grid (wrong row width, mislabeled or nil block)
		// fails the row check; epoch's chunkers never build one.
		if _, err := inc.FeedEpoch(row); err != nil {
			panic(err)
		}
	}
	res, err := inc.Finish()
	if err != nil {
		panic(err)
	}
	return res
}
