package core

import (
	"errors"
	"fmt"

	"butterfly/internal/epoch"
)

// ErrFinished is returned (wrapped) by FeedEpoch and Finish once the
// incremental driver has been finished or closed: the sliding window has
// been flushed by the trailing pass, so no further epochs can be analyzed.
// Callers detect it with errors.Is.
var ErrFinished = errors.New("core: incremental driver is finished")

// Incremental is the push-mode form of the streaming driver: instead of the
// driver pulling epoch rows from a BlockSource (RunStream), the caller feeds
// rows one at a time and receives each tick's reports back immediately. An
// Incremental IS the checkpoint of a streaming analysis: between feeds it
// holds exactly the sliding window — SOS_{l−1}, SOSₗ, the retained summary
// rows, and the previous epoch's blocks — which by the butterfly invariant
// fully summarizes the strictly-ordered past. The butterflyd server keeps
// one Incremental per session; a dropped connection can therefore resume by
// re-feeding from the next epoch, without replaying the whole trace.
//
// Feeding is single-threaded: FeedEpoch, Finish and Close must be called
// from one goroutine at a time (internally a feed still fans out to the
// per-thread pipeline workers when the driver is Parallel and the tick is
// large enough, tickGrain). An Incremental
// produces, over the same rows, exactly the reports RunStream would — same
// contents, same order — which the differential and soak tests pin down.
type Incremental struct {
	st       *streamState
	finished bool
	closed   bool
}

// NewIncremental returns a push-mode streaming driver over T threads. The
// Driver configuration (lifeguard, Parallel, Obs, Trace) applies as in
// RunStream. T must be positive: a zero-thread trace has nothing to feed.
func (d *Driver) NewIncremental(T int) (*Incremental, error) {
	return d.newIncremental(T, false)
}

// NewIncrementalTrimmed is NewIncremental with per-feed report trimming:
// reports are handed back from FeedEpoch/Finish and not retained.
func (d *Driver) NewIncrementalTrimmed(T int) (*Incremental, error) {
	return d.newIncremental(T, true)
}

func (d *Driver) newIncremental(T int, trim bool) (*Incremental, error) {
	if T <= 0 {
		return nil, fmt.Errorf("core: incremental driver needs at least one thread, got %d", T)
	}
	// trim stops the Result from accumulating reports across feeds:
	// FeedEpoch returns each tick's reports and the retained Result keeps
	// only counters. Long-lived sessions need this — a server must not hold
	// every report of an unbounded trace in memory.
	st := &streamState{d: d, T: T, res: &Result{}, trim: trim}
	st.m = d.metrics(T)
	st.fReports = make([][]Report, T)
	st.sReports = make([][]Report, T)
	st.wingScratch = make([][]Summary, T)
	if wa, ok := d.LG.(WingAggregator); ok {
		st.folds = newWingFolds(wa)
	}
	st.sosCur = d.LG.BottomState() // SOS₀
	if d.Parallel && T > 1 {
		st.pipe = newStreamPipeline(d.LG, T)
	}
	return &Incremental{st: st}, nil
}

// NumThreads returns the row width every fed row must have.
func (inc *Incremental) NumThreads() int { return inc.st.T }

// NextEpoch returns the epoch number the next FeedEpoch must carry — the
// resume point of a checkpointed session.
func (inc *Incremental) NextEpoch() int { return inc.st.l }

// pipelined reports whether per-thread pipeline workers are running.
func (inc *Incremental) pipelined() bool { return inc.st.pipe != nil }

// Per-unit constants for MemEstimate. Deliberately coarse: an event held in
// the sliding window costs its decoded representation plus its share of
// summaries and wing folds; an SOS fact costs its set entry plus hash
// overhead. The budget plane needs a stable, cheap, monotone-ish signal, not
// an accountant.
const (
	memPerWindowEvent = 192 // bytes per event retained in the window
	memPerSOSFact     = 96  // bytes per lifeguard SOS fact
)

// MemEstimate returns a coarse estimate of the bytes this driver currently
// holds: the events of the retained window rows plus the lifeguard's SOS
// cardinality when it exposes one (StateSizer). The butterflyd memory-budget
// plane sums these across sessions to decide admission and load shedding;
// the estimate is read between feeds, from the feeding goroutine.
func (inc *Incremental) MemEstimate() int64 {
	st := inc.st
	var est int64
	for _, v := range st.winEvents {
		est += int64(v) * memPerWindowEvent
	}
	if sizer, ok := st.d.LG.(StateSizer); ok && st.sosCur != nil {
		est += int64(sizer.StateSize(st.sosCur)) * memPerSOSFact
	}
	return est
}

// SetRowRecycler registers a callback that receives each fed epoch row once
// the sliding window no longer references it: epoch l's row is released
// during the feed of epoch l+1 (or at Finish), after its second pass has
// consumed it. The caller may then return the blocks and their event storage
// to a pool. The most recently fed row is the session's checkpoint — it is
// held across a detach/resume and never released before the next feed — so
// resumable sessions stay valid.
func (inc *Incremental) SetRowRecycler(f func([]*epoch.Block)) {
	inc.st.recycleRow = f
}

// FeedEpoch advances the analysis by one epoch tick — first-pass(l),
// second-pass(l−1), SOS update — and returns the reports that tick
// produced, in the same (pass, thread, instruction) order RunStream appends
// them. The row must be labeled with the epoch NextEpoch reports.
func (inc *Incremental) FeedEpoch(row []*epoch.Block) ([]Report, error) {
	if inc.finished || inc.closed {
		return nil, fmt.Errorf("%w: FeedEpoch after Finish/Close", ErrFinished)
	}
	if err := inc.st.checkRow(row); err != nil {
		return nil, err
	}
	n0 := len(inc.st.res.Reports)
	inc.st.tick(row)
	return inc.takeReports(n0), nil
}

// Finish runs the trailing second pass and SOS updates and returns the
// final Result. In trimmed mode the Result's Reports hold only the trailing
// tick's reports (earlier ones were returned by FeedEpoch); otherwise
// Reports holds the full run, exactly as RunStream would return it.
// Finish does not shut the pipeline down — call Close when done.
func (inc *Incremental) Finish() (*Result, error) {
	if inc.finished || inc.closed {
		return nil, fmt.Errorf("%w: Finish after Finish/Close", ErrFinished)
	}
	inc.finished = true
	inc.st.finish()
	return inc.st.res, nil
}

// Close shuts down the pipeline workers. It is idempotent and safe to call
// whether or not Finish ran (an abandoned session is closed without a
// trailing pass).
func (inc *Incremental) Close() {
	if inc.closed {
		return
	}
	inc.closed = true
	if inc.st.pipe != nil {
		inc.st.pipe.shutdown()
	}
}

// takeReports returns the reports appended since index n0. In trim mode
// they are the tick's own slice (collect), which the Result lets go of so
// it stays bounded.
func (inc *Incremental) takeReports(n0 int) []Report {
	reps := inc.st.res.Reports[n0:]
	if inc.st.trim {
		inc.st.res.Reports = nil
	}
	return reps
}
