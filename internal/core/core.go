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
// driver are owned by it; lifeguards must not retain and mutate them, except
// that a generation the driver hands back as UpdateSOS's dead argument is
// the lifeguard's again to overwrite.
type State any

// Summary is the lifeguard-defined first-pass block summary: whatever the
// lifeguard needs to expose a block to the wings of other butterflies
// (SIDE-OUT sets) plus its local GEN/KILL for epoch summarization. A summary
// may also carry pass scratch in unexported fields, used only by the passes
// of its own thread; other threads' passes read its results.
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
	// WingAggs holds the driver's row unions when the lifeguard implements
	// WingAggregator: WingAggs[k] is the fold of every summary of epoch row
	// l−1+k, the body's own thread included (the lifeguard leaves its own
	// thread out when it probes), or nil where the window is clipped at a
	// grid edge. WingAggs[1] (the body's own row, which always exists) is
	// non-nil exactly when aggregation is active. Set only during the
	// second pass; the wings slice is still passed.
	WingAggs [3]any
	// Reuse is set only in the first pass: a summary of the block's own
	// thread that the window no longer references (block (l−4, t), which
	// left the window as epoch l entered it), or nil. The lifeguard may
	// reset it and return it, refilled, as this block's summary; nothing
	// reads it again otherwise. It is the only way storage passes from one
	// summary to the next (DESIGN.md §12).
	Reuse Summary
}

// WingAggregator is an optional Lifeguard extension. The driver's naive
// wing walk re-folds the same epoch row once per body — O(T²) summary
// folds per epoch. A lifeguard whose wing meet can exclude a thread after
// the fold implements WingAggregator; the driver then folds each row once,
// all T summaries together, and hands every body of the rows l−1..l+1 the
// same folds via PassContext.WingAggs. The lifeguard's fold remembers
// which thread contributed what, so a body on thread t asks only about the
// others (addrcheck and memcheck tag each run of their unions with its
// owning thread, sets.RowUnion). The driver makes one fold per window row
// with EmptyWings and refolds it in place each time the row's slot takes a
// new epoch; nothing reads the slot's previous fold by then.
type WingAggregator interface {
	// EmptyWings returns a new fold of zero wing summaries.
	EmptyWings() any
	// FoldRow sets dst to the fold of row, every thread's summary of one
	// epoch, and returns a count of the work it did: the number of runs
	// (or items) it wrote, a pure function of the row (wing.fold_ops).
	FoldRow(dst any, row []Summary) int
}

// wingFolds holds each window row's fold, made once with EmptyWings.
type wingFolds struct {
	wa   WingAggregator
	rows [streamWindow]any
}

func newWingFolds(wa WingAggregator) *wingFolds {
	f := &wingFolds{wa: wa}
	for k := range f.rows {
		f.rows[k] = wa.EmptyWings()
	}
	return f
}

// fold folds epoch k's row into its window slot and returns the fold and
// the work count FoldRow reported.
func (f *wingFolds) fold(k int, row []Summary) (any, int) {
	out := f.rows[k%streamWindow]
	return out, f.wa.FoldRow(out, row)
}

// Lifeguard is implemented by a butterfly analysis. The driver guarantees:
// FirstPass runs exactly once per block, in epoch order, after the SOS for
// the block's epoch is final; SecondPass runs after FirstPass has completed
// for every block of epochs l−1, l, l+1; UpdateSOS runs on a single
// goroutine. Within one epoch, FirstPass (and SecondPass) calls for
// different threads may run concurrently, so they must not share mutable
// state beyond the lifeguard's read-only configuration.
//
// The SOS history is linear: UpdateSOS is called once per generation,
// always on the newest one (the value BottomState or UpdateSOS returned
// last), and never while a pass is running. A lifeguard may rely on it to
// hand storage from a generation to its successor, as lockset's version
// chain does, provided every generation still reads as its own value.
//
// Storage is reused in place (DESIGN.md §12): the driver hands every value
// that leaves the window straight to the call that builds its successor —
// a summary as the next first pass's PassContext.Reuse, a generation as
// UpdateSOS's dead argument. A value arrives at most once, only after the
// last read of it, and never while it is still inside the window; the
// final SOS never arrives. Where it comes from may change what a run
// costs, never what it computes. A wrapper that keeps values (a recorder,
// a reference) must not pass Reuse or dead on.
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
	// (prevEpoch, nil when l == 0) and l (curEpoch), per §5.1.1/§5.2. prev
	// is the newest generation and is updated only this once (the linear
	// history above); it must keep reading as SOS_{l+1} afterwards, since
	// the next tick's second pass reads it. dead, when non-nil, is SOSₗ,
	// whose last reader (second pass l) has run: the lifeguard may build the
	// result in its storage. It is nil at the end of a run, so the final SOS
	// never shares storage with a generation handed back.
	UpdateSOS(prev, dead State, prevEpoch, curEpoch []Summary) State
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
