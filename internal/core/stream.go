package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"butterfly/internal/epoch"
	"butterfly/internal/failpoint"
)

// This file implements the engine: the one implementation of the two-pass
// schedule. streamState advances one epoch row per tick and, in parallel
// mode, keeps T persistent lifeguard workers alive for the whole run,
// signalling them once per tick that reads enough events to pay for it
// (tickGrain); smaller ticks run inline. Each tick overlaps the stages the
// sliding window permits:
//
//	decode(l+1..l+2) ∥ [ first-pass(l) → barrier → second-pass(l−1) ] → SOS-update(l−1)
//
// Under RunStream the decode prefetcher runs ahead of the analysis on its
// own goroutine; within a tick, first-pass(l) and second-pass(l−1) each run
// with one worker per thread, separated by a single internal barrier. That
// is the happens-before structure of the paper's algorithm — all of
// first-pass(l) completes before any of second-pass(l−1) starts, and the SOS
// update for epoch l+1 consumes epoch l−1's post-second-pass summaries — so
// serial and parallel runs produce identical reports and identical final
// SOS (the differential suites check both against a plain serial
// transcription of the algorithm).
//
// Memory is bounded by the sliding window regardless of trace length: the
// driver retains the summaries of epochs l−3..l (ring of 4 rows), the blocks
// of epochs l−1..l, two SOS values, and at most streamPrefetch decoded rows
// in flight. Nothing else accumulates, and no analysis value is pooled: the
// window's own slots are the free list. Each summary slot hands its dead
// summary to the first pass that refills it (PassContext.Reuse), and each
// tick hands the SOS generation its second pass retired to the update that
// replaces it (UpdateSOS's dead argument), so a lifeguard rebuilds in the
// storage it built before (DESIGN.md §12).

// BlockSource yields successive epoch rows of blocks. Implementations
// include epoch.StreamRows (incremental decode of the streaming trace
// format) and epoch.GridRows (replay of a materialized grid).
type BlockSource interface {
	// NumThreads reports the row width; every row must have this many
	// blocks.
	NumThreads() int
	// NextEpoch returns the blocks of the next epoch, one per thread, or
	// io.EOF after the last epoch.
	NextEpoch() ([]*epoch.Block, error)
}

// RowRecyclingSource is a BlockSource that owns the rows it yields and can
// reuse their storage: RunStream registers RecycleRow as the driver's row
// recycler, handing each row back once the sliding window releases it.
// Sources whose rows are shared with the caller (epoch.GridRows) must not
// implement it.
type RowRecyclingSource interface {
	BlockSource
	RecycleRow(row []*epoch.Block)
}

// streamWindow is the number of summary rows retained: epochs l−3..l are
// all the passes and updates of tick l can reference.
const streamWindow = 4

// streamPrefetch is how many decoded epoch rows may be in flight between
// the decode goroutine and the analysis pipeline.
const streamPrefetch = 2

// tickGrain is the per-thread event count at which a Parallel driver fans a
// tick out to its workers: a tick whose two passes read fewer than
// tickGrain·T events (row l, plus row l−1 for the second pass) runs inline
// on the feeding goroutine instead. Below it, one signal, two barrier
// crossings and a join per worker cost more than the passes save; the
// break-even measured by BenchmarkTickGrain (EXPERIMENTS.md "Grain-adaptive
// ticks") sits near h = 128, that is 256 tick events per thread.
//
// The rule reads event counts only — never timing, GOMAXPROCS or load — so
// a given stream takes the same schedule on every host, and it is a
// constant, not a knob: schedules change cost, never results.
const tickGrain = 256

// tickSchedule picks how a Parallel driver runs its ticks. Production
// drivers always use the adaptive rule; core's tests pin the other two to
// keep both paths covered on any grid (export_test.go).
type tickSchedule uint8

const (
	scheduleAdaptive tickSchedule = iota // fan out once a tick reads tickGrain·T events
	scheduleInline                       // every tick on the feeding goroutine
	scheduleFanout                       // every tick on the workers
)

// RunStream executes the two-pass butterfly algorithm over a stream of
// epoch rows, retaining only the sliding window. The error, if any, comes
// from the source; analysis itself cannot fail.
func (d *Driver) RunStream(src BlockSource) (*Result, error) {
	T := src.NumThreads()
	if T == 0 {
		// Nothing to analyze, as for Run on a zero-thread grid, but drain the
		// source so a stream with a malformed tail still reports its error.
		res := &Result{}
		for l := 0; ; l++ {
			if _, err := src.NextEpoch(); err == io.EOF {
				res.FinalSOS = d.LG.BottomState()
				return res, nil
			} else if err != nil {
				return nil, fmt.Errorf("core: reading epoch %d: %w", l, err)
			}
		}
	}

	inc, err := d.NewIncremental(T)
	if err != nil {
		return nil, err
	}
	defer inc.Close()
	if rs, ok := src.(RowRecyclingSource); ok {
		inc.SetRowRecycler(rs.RecycleRow)
	}

	next, stop := startPrefetch(src, inc.pipelined(), inc.st.m, T)
	defer stop()
	for {
		row, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading epoch %d: %w", inc.st.l, err)
		}
		if _, err := inc.FeedEpoch(row); err != nil {
			return nil, err
		}
	}
	return inc.Finish()
}

// startPrefetch returns a row iterator over src. In pipelined mode the
// source is drained on a dedicated goroutine so decoding epoch l+1 overlaps
// the analysis of epoch l; otherwise rows are pulled synchronously (the
// serial mode stays deterministic and single-goroutine).
//
// With metrics attached, both modes time each decode (stage.decode.ns plus
// a span on the decoder row); the async mode additionally reports the
// queue depth seen at each consume, the analysis-side wait for the next
// row, and the two stall counters (analysis starved vs decoder blocked).
func startPrefetch(src BlockSource, async bool, m *driverMetrics, T int) (next func() ([]*epoch.Block, error), stop func()) {
	if !async {
		if m == nil {
			return src.NextEpoch, func() {}
		}
		l := 0
		next = func() ([]*epoch.Block, error) {
			start := time.Now()
			row, err := src.NextEpoch()
			if err == nil {
				m.stageDone(stageDecode, l, tidDecoder(T), start)
			}
			l++
			return row, err
		}
		return next, func() {}
	}
	type rowMsg struct {
		row []*epoch.Block
		err error
	}
	rows := make(chan rowMsg, streamPrefetch)
	quit := make(chan struct{})
	go func() {
		defer close(rows)
		for l := 0; ; l++ {
			start := m.now()
			row, err := src.NextEpoch()
			if err == nil {
				m.stageDone(stageDecode, l, tidDecoder(T), start)
			}
			msg := rowMsg{row, err}
			if m != nil {
				// Non-blocking attempt first, so a full queue (the decoder
				// running ahead of analysis — the healthy state) is counted.
				select {
				case rows <- msg:
					if err != nil {
						return
					}
					continue
				case <-quit:
					return
				default:
					m.decodeStalls.Inc()
				}
			}
			select {
			case rows <- msg:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	var stopOnce sync.Once
	next = func() ([]*epoch.Block, error) {
		if m != nil {
			if len(rows) == 0 {
				m.prefetchStalls.Inc()
			}
			m.prefetchDepth.ObserveInt(int64(len(rows)))
			start := time.Now()
			msg, ok := <-rows
			m.prefetchWait.Observe(time.Since(start))
			if !ok {
				return nil, io.EOF
			}
			return msg.row, msg.err
		}
		msg, ok := <-rows
		if !ok {
			return nil, io.EOF
		}
		return msg.row, msg.err
	}
	stop = func() { stopOnce.Do(func() { close(quit) }) }
	return next, stop
}

// streamState is the driver's sliding window: the last streamWindow summary
// rows, the current and previous block rows, and the two live SOS values.
type streamState struct {
	d    *Driver
	T    int
	res  *Result
	pipe *streamPipeline
	m    *driverMetrics

	// winEvents[k%streamWindow] is epoch k's event count for the epochs the
	// window retains; its sum is the window.events gauge and the basis of
	// memEstimate, so it is maintained unconditionally.
	winEvents [streamWindow]int

	// panics collects the first panic erupting on a pipeline-worker
	// goroutine; exec re-panics it on the feeding goroutine (panic.go).
	panics panicBox

	// sums[k%streamWindow] holds epoch k's summaries for k in l−3..l.
	sums [streamWindow][]Summary
	// folds mirrors sums with each row's wing fold when the lifeguard
	// implements WingAggregator; nil otherwise.
	folds *wingFolds
	// sosPrev and sosCur are SOS_{l−1} and SOSₗ at tick entry.
	sosPrev, sosCur State
	// prevBlocks is epoch l−1's row (second-pass input).
	prevBlocks []*epoch.Block
	// l is the epoch the next tick will first-pass.
	l int

	// Persistent tick scratch, reused every epoch so the steady-state loop
	// allocates nothing (DESIGN.md §12): the tickWork itself, the per-pass
	// report tables and each thread's wing-slice backing.
	work        tickWork
	fReports    [][]Report
	sReports    [][]Report
	wingScratch [][]Summary

	// trim hands each tick's reports to the caller instead of accumulating
	// them in res (Incremental's trimmed mode).
	trim bool

	// recycleRow is the caller's block-row hook (Incremental.SetRowRecycler).
	recycleRow func([]*epoch.Block)
}

// takeSlot returns the row epoch l's first pass fills: epoch l's window
// slot, which still holds epoch l−4's summaries. No pass or update can read
// those any more, so thread t's goes to its first pass as PassContext.Reuse
// and the summary that pass returns takes its place.
func (st *streamState) takeSlot(l int) []Summary {
	row := st.sums[l%streamWindow]
	st.sums[l%streamWindow] = nil
	if row == nil {
		row = make([]Summary, st.T)
	}
	return row
}

// checkRow validates a source row against the grid invariants the passes
// rely on.
func (st *streamState) checkRow(row []*epoch.Block) error {
	if len(row) != st.T {
		return fmt.Errorf("core: epoch %d row has %d blocks, want %d", st.l, len(row), st.T)
	}
	for t, b := range row {
		if b == nil {
			return fmt.Errorf("core: epoch %d thread %d: nil block", st.l, t)
		}
		if b.Epoch != st.l || int(b.Thread) != t {
			return fmt.Errorf("core: block at epoch %d thread %d labeled (%d,%d)", st.l, t, b.Epoch, b.Thread)
		}
	}
	return nil
}

// rowSums returns epoch k's summaries if k is inside the live window.
func (st *streamState) rowSums(k int) []Summary {
	if k < 0 || k > st.l || k <= st.l-streamWindow {
		return nil
	}
	return st.sums[k%streamWindow]
}

// rowAgg returns epoch k's wing fold, under the same window bounds as
// rowSums.
func (st *streamState) rowAgg(k int) any {
	if st.folds == nil || k < 0 || k > st.l || k <= st.l-streamWindow {
		return nil
	}
	return st.folds.rows[k%streamWindow]
}

// tick advances the pipeline by one epoch: first-pass(l), second-pass(l−1),
// then the SOS update producing SOS_{l+1}.
func (st *streamState) tick(row []*epoch.Block) {
	d, l := st.d, st.l
	rowEvents := 0
	for _, b := range row {
		rowEvents += b.Len()
	}
	st.res.Events += rowEvents
	readEvents := rowEvents
	if l >= 1 {
		readEvents += st.winEvents[(l-1)%streamWindow]
	}
	// Reassigning the persistent tickWork wholesale zeroes every field the
	// tick does not set, so nothing stale leaks between epochs.
	st.work = tickWork{
		runF:        true,
		runS:        l >= 1,
		folds:       st.folds,
		m:           st.m,
		panics:      &st.panics,
		epoch:       l,
		fBlocks:     row,
		fOut:        st.takeSlot(l),
		fctx:        PassContext{SOS: st.sosCur, Epoch1Back: st.rowSums(l - 1), Epoch2Back: st.rowSums(l - 2)},
		wingScratch: st.wingScratch,
	}
	w := &st.work
	if w.runS {
		w.sBlocks = st.prevBlocks
		w.sctx = PassContext{SOS: st.sosPrev, Epoch1Back: st.rowSums(l - 2), Epoch2Back: st.rowSums(l - 3)}
		w.wingRows = [3][]Summary{st.rowSums(l - 2), st.rowSums(l - 1), w.fOut}
		w.sAggs = [3]any{st.rowAgg(l - 2), st.rowAgg(l - 1), nil} // [2] is filled post-barrier
	}
	st.exec(w, readEvents)
	// Publish epoch l's summaries only now: rowSums(l) must not reach the
	// slot while it still held epoch l−4.
	st.sums[l%streamWindow] = w.fOut
	st.collect(w)

	// SOS_{l+1}: for l == 0 it is ⊥ by definition; afterwards the epoch
	// summary of l−1 (its post-second-pass summaries are final as of this
	// tick) advances the SOS. SOS_{l−1} was this tick's second-pass state,
	// and no later pass or update reads it: it carries SOS_{l+1}.
	var sosNext State
	if l == 0 {
		sosNext = d.LG.BottomState()
	} else {
		start := st.m.now()
		sosNext = d.LG.UpdateSOS(st.sosCur, st.sosPrev, st.rowSums(l-2), st.rowSums(l-1))
		st.m.stageDone(stageSOSUpdate, l+1, tidDriver, start)
		st.m.sosUpdated(sosNext)
	}
	st.winEvents[l%streamWindow] = rowEvents
	if st.m != nil {
		var held int64
		for _, v := range st.winEvents {
			held += int64(v)
		}
		st.m.windowSet(held)
		st.m.epochDone(rowEvents, st.T)
	}
	// The window has slid past epoch l−1's blocks, this tick's second-pass
	// input.
	oldRow := st.prevBlocks
	st.sosPrev, st.sosCur = st.sosCur, sosNext
	st.prevBlocks = row
	st.l++
	if st.recycleRow != nil && oldRow != nil {
		st.recycleRow(oldRow)
	}
}

// finish runs the trailing second pass and SOS updates once the source is
// exhausted.
func (st *streamState) finish() {
	d, L := st.d, st.l
	st.res.Epochs = L
	if L == 0 {
		st.res.FinalSOS = d.LG.BottomState()
		return
	}
	st.work = tickWork{
		runS:    true,
		folds:   st.folds,
		m:       st.m,
		panics:  &st.panics,
		epoch:   L,
		sBlocks: st.prevBlocks,
		sctx:    PassContext{SOS: st.sosPrev, Epoch1Back: st.rowSums(L - 2), Epoch2Back: st.rowSums(L - 3)},
		// Epoch L does not exist; the tail wing is clipped.
		wingRows:    [3][]Summary{st.rowSums(L - 2), st.rowSums(L - 1), nil},
		sAggs:       [3]any{st.rowAgg(L - 2), st.rowAgg(L - 1), nil},
		wingScratch: st.wingScratch,
	}
	w := &st.work
	st.exec(w, st.winEvents[(L-1)%streamWindow])
	st.collect(w)
	if st.recycleRow != nil && st.prevBlocks != nil {
		st.recycleRow(st.prevBlocks)
		st.prevBlocks = nil
	}
	// The final SOS is built in fresh storage: it is the Result's, and
	// shares nothing with a generation the window retired.
	start := st.m.now()
	final := d.LG.UpdateSOS(st.sosCur, nil, st.rowSums(L-2), st.rowSums(L-1))
	st.m.stageDone(stageSOSUpdate, L+1, tidDriver, start)
	st.m.sosUpdated(final)
	st.res.FinalSOS = final
	// The window is dead: a finished Incremental holds only its Result.
	st.work, st.sums, st.folds, st.sosPrev, st.sosCur = tickWork{}, [streamWindow][]Summary{}, nil, nil, nil
}

// fanOut reports whether a tick whose passes read events events runs on the
// workers rather than inline (tickGrain).
func (st *streamState) fanOut(events int) bool {
	if st.pipe == nil {
		return false
	}
	switch st.d.sched {
	case scheduleInline:
		return false
	case scheduleFanout:
		return true
	}
	return events >= tickGrain*st.T
}

// exec runs one tick's passes, on the workers when fanOut says so.
func (st *streamState) exec(w *tickWork, events int) {
	if w.runF {
		w.fReports = st.fReports
	}
	if w.runS {
		// The second pass targets epoch st.l−1 both mid-run and in finish().
		w.sOwn = st.rowSums(st.l - 1)
		w.sReports = st.sReports
	}
	fan := st.fanOut(events)
	st.m.tickRan(fan)
	if fan {
		st.pipe.run(w)
		// A panic on a worker goroutine was boxed so the tick's barriers
		// could complete; surface it here, on the feeding goroutine, where
		// the server's recover can quarantine just this session.
		w.panics.rethrow()
		return
	}
	// Inline: all first passes, then all second passes — the same order the
	// barrier enforces on the workers.
	if w.runF {
		for t := 0; t < st.T; t++ {
			start := w.m.now()
			w.firstPass(st.d.LG, t)
			w.m.stageDone(stageFirstPass, w.epoch, tidWorker(t), start)
		}
	}
	w.foldAggs()
	if w.runS {
		for t := 0; t < st.T; t++ {
			start := w.m.now()
			w.secondPass(st.d.LG, t)
			w.m.stageDone(stageSecondPass, w.epoch-1, tidWorker(t), start)
		}
	}
}

// collect appends a tick's reports in (pass, thread) order. In trim mode
// the Result holds one tick's reports at a time, which the caller keeps, so
// each tick gets a fresh slice of exactly the tick's length.
func (st *streamState) collect(w *tickWork) {
	if st.trim {
		n := 0
		for _, reps := range w.fReports {
			n += len(reps)
		}
		for _, reps := range w.sReports {
			n += len(reps)
		}
		st.res.Reports = nil
		if n > 0 {
			st.res.Reports = make([]Report, 0, n)
		}
	}
	for _, reps := range w.fReports {
		st.res.Reports = append(st.res.Reports, reps...)
		st.m.countReports(reps)
	}
	for _, reps := range w.sReports {
		st.res.Reports = append(st.res.Reports, reps...)
		st.m.countReports(reps)
	}
}

// tickWork is one epoch tick's shared input/output, published to the
// workers before they are signalled.
type tickWork struct {
	runF, runS bool
	folds      *wingFolds     // non-nil when the lifeguard aggregates wings
	m          *driverMetrics // nil when the driver is uninstrumented
	panics     *panicBox      // collects worker panics (owned by streamState)
	epoch      int            // l: the first-pass epoch (second pass covers l−1)

	// First pass over epoch l.
	fBlocks  []*epoch.Block
	fctx     PassContext
	fOut     []Summary // holds epoch l−4's summaries until each first pass replaces its own
	fReports [][]Report

	// Second pass over epoch l−1.
	sBlocks  []*epoch.Block
	sctx     PassContext
	sOwn     []Summary    // epoch l−1's own summaries
	wingRows [3][]Summary // epochs l−2, l−1, l (l's row is fOut, final after the barrier)
	sAggs    [3]any       // the wing folds of the same rows
	sReports [][]Report

	// Reused scratch (owned by streamState). wingScratch[t] is thread t's
	// wing-slice backing — workers touch only their own index.
	wingScratch [][]Summary
}

// foldAggs folds the freshly first-passed row into its window slot.
// It must run after every first pass of the tick and before any second
// pass: in pipelined mode one worker calls it between the two barriers, in
// serial mode it runs between the loops.
func (w *tickWork) foldAggs() {
	if w.folds == nil || !w.runF {
		return
	}
	agg, ops := w.folds.fold(w.epoch, w.fOut)
	w.m.wingFolded(ops)
	if w.runS {
		w.sAggs[2] = agg
	}
}

// The safe* wrappers box a panicking pass into w.panics via a direct defer
// (no closure, so the zero-panic path is allocation-free — the steady-state
// alloc budget covers these calls).
func (w *tickWork) safeFirstPass(lg Lifeguard, t int) {
	defer w.panics.capture()
	w.firstPass(lg, t)
}

func (w *tickWork) safeSecondPass(lg Lifeguard, t int) {
	defer w.panics.capture()
	w.secondPass(lg, t)
}

func (w *tickWork) safeFoldAggs() {
	defer w.panics.capture()
	w.foldAggs()
}

// firstPass runs thread t's first pass.
func (w *tickWork) firstPass(lg Lifeguard, t int) {
	// core.pass erupts here — on a pipeline-worker goroutine in parallel
	// runs — so the chaos matrix proves panic containment where it
	// is hardest, not just on the feeding goroutine. Error policies panic
	// too: analysis itself has no error channel.
	if err := failpoint.Inject(failpoint.SiteCorePass); err != nil {
		panic(err)
	}
	c := w.fctx
	if c.Epoch1Back != nil {
		c.Head = c.Epoch1Back[t]
	}
	c.Reuse = w.fOut[t]
	w.fOut[t], w.fReports[t] = lg.FirstPass(w.fBlocks[t], c)
}

// secondPass runs thread t's second pass.
func (w *tickWork) secondPass(lg Lifeguard, t int) {
	c := w.sctx
	if c.Epoch1Back != nil {
		c.Head = c.Epoch1Back[t]
	}
	c.Own = w.sOwn[t]
	c.WingAggs = w.sAggs
	wings := w.wingScratch[t][:0]
	for _, rowS := range w.wingRows {
		if rowS == nil {
			continue
		}
		for tt, s := range rowS {
			if tt != t {
				wings = append(wings, s)
			}
		}
	}
	w.wingScratch[t] = wings
	w.sReports[t] = lg.SecondPass(w.sBlocks[t], c, wings)
}

// streamPipeline holds the persistent per-thread workers: one signal per
// worker per tick, with an internal barrier separating the first-pass and
// second-pass phases.
type streamPipeline struct {
	lg    Lifeguard
	start []chan *tickWork
	done  sync.WaitGroup
	bar   *barrier
}

func newStreamPipeline(lg Lifeguard, T int) *streamPipeline {
	p := &streamPipeline{lg: lg, bar: newBarrier(T)}
	p.start = make([]chan *tickWork, T)
	for t := 0; t < T; t++ {
		p.start[t] = make(chan *tickWork, 1)
		go p.worker(t)
	}
	return p
}

// run executes one tick on the workers and waits for completion.
func (p *streamPipeline) run(w *tickWork) {
	p.done.Add(len(p.start))
	for _, ch := range p.start {
		ch <- w
	}
	p.done.Wait()
}

// shutdown terminates the workers.
func (p *streamPipeline) shutdown() {
	for _, ch := range p.start {
		close(ch)
	}
}

func (p *streamPipeline) worker(t int) {
	for w := range p.start[t] {
		m := w.m
		// Every pass runs boxed: a panicking lifeguard is captured, and the
		// worker still arrives at each barrier and done.Done() below — a
		// worker that died mid-tick would deadlock its siblings. exec
		// re-panics the first capture on the feeding goroutine.
		if w.runF {
			start := m.now()
			w.safeFirstPass(p.lg, t)
			m.stageDone(stageFirstPass, w.epoch, tidWorker(t), start)
		}
		// All first passes complete before any second pass reads the new
		// row as a wing.
		bstart := m.now()
		p.bar.await()
		m.barrierDone(bstart)
		if w.folds != nil {
			// Worker 0 folds the fresh row's wing aggregates while the
			// others wait; the extra barrier publishes the fold.
			if t == 0 {
				w.safeFoldAggs()
			}
			bstart = m.now()
			p.bar.await()
			m.barrierDone(bstart)
		}
		if w.runS {
			start := m.now()
			w.safeSecondPass(p.lg, t)
			m.stageDone(stageSecondPass, w.epoch-1, tidWorker(t), start)
		}
		p.done.Done()
	}
}

// barrier is a reusable synchronization point for a fixed set of
// participants. await blocks until all n have arrived, then releases them;
// the generation swap makes it immediately reusable for the next phase.
type barrier struct {
	n   int
	mu  sync.Mutex
	cnt int
	gen chan struct{}
}

func newBarrier(n int) *barrier {
	return &barrier{n: n, gen: make(chan struct{})}
}

func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.cnt++
	if b.cnt == b.n {
		b.cnt = 0
		b.gen = make(chan struct{})
		b.mu.Unlock()
		close(gen)
		return
	}
	b.mu.Unlock()
	<-gen
}
