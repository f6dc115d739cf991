package core

import (
	"runtime"
	"strconv"
	"time"

	"butterfly/internal/obs"
)

// This file is the driver side of the telemetry layer (internal/obs): a
// per-run cache of resolved metric handles so that the hot paths pay one
// pointer nil-check per stage when instrumentation is off, and one
// time.Now pair plus a few atomic adds per (epoch, thread, stage) when it
// is on. Every helper on *driverMetrics is safe on a nil receiver — an
// uninstrumented Driver (Obs == nil, Trace == nil) never allocates any of
// this. DESIGN.md §9 documents the metric names and the span layout.

// StateSizer is an optional Lifeguard extension reporting the cardinality
// of its SOS state (interval count, fact count, tracked locations — the
// lifeguard's natural size measure). Drivers with a registry attached
// record it after every SOS update as sos.size / sos.peak_size.
type StateSizer interface {
	StateSize(s State) int
}

// stage enumerates the pipeline stages that get a latency histogram and a
// trace span.
type stage int

const (
	stageFirstPass stage = iota
	stageSecondPass
	stageSOSUpdate
	stageDecode
	numStages
)

// stageNames are the trace span names; stable across epochs so Perfetto
// aggregates slices by stage.
var stageNames = [numStages]string{"first-pass", "second-pass", "sos-update", "decode"}

// Trace-row (tid) layout: the driver goroutine (SOS updates) is row 0,
// worker t is row t+1, and the decode goroutine follows the workers.
const tidDriver = 0

func tidWorker(t int) int  { return t + 1 }
func tidDecoder(T int) int { return T + 1 }

// driverMetrics caches the handles a run reports into.
type driverMetrics struct {
	reg   *obs.Registry      // nil when only tracing
	trace *obs.TraceRecorder // nil when only counting
	sizer StateSizer         // nil when the lifeguard has no size measure

	epochs, events, blocks       *obs.Counter
	wingFoldRows, wingFoldOps    *obs.Counter
	prefetchStalls, decodeStalls *obs.Counter
	stages                       [numStages]*obs.Histogram
	barrierWait                  *obs.Histogram
	prefetchWait, prefetchDepth  *obs.Histogram
	windowEvents, windowPeak     *obs.Gauge
	sosSize, sosPeak             *obs.Gauge
	gcPause, gcCycles            *obs.Gauge
	allocsPerEpoch               *obs.Gauge

	// GC sampling state, touched only by the single goroutine that calls
	// epochDone (the feeding goroutine).
	gcCountdown   int
	gcLastMallocs uint64
}

// gcSampleEvery is the epoch interval between runtime.ReadMemStats samples.
// ReadMemStats stops the world briefly; once per 64 epochs is noise.
const gcSampleEvery = 64

// metrics builds the handle cache for a run over T threads, or returns nil
// when the driver is uninstrumented. obs handles are nil-safe, so a
// trace-only or registry-only configuration needs no further branching.
func (d *Driver) metrics(T int) *driverMetrics {
	if d.Obs == nil && d.Trace == nil {
		return nil
	}
	reg := d.Obs
	m := &driverMetrics{
		reg:            reg,
		trace:          d.Trace,
		epochs:         reg.Counter(obs.MetricEpochs),
		events:         reg.Counter(obs.MetricEvents),
		blocks:         reg.Counter(obs.MetricBlocks),
		wingFoldRows:   reg.Counter(obs.MetricWingFoldRows),
		wingFoldOps:    reg.Counter(obs.MetricWingFoldOps),
		prefetchStalls: reg.Counter(obs.MetricPrefetchStall),
		decodeStalls:   reg.Counter(obs.MetricDecodeStall),
		barrierWait:    reg.Histogram(obs.MetricBarrierWaitNs),
		prefetchWait:   reg.Histogram(obs.MetricPrefetchWait),
		prefetchDepth:  reg.Histogram(obs.MetricPrefetchDepth),
		windowEvents:   reg.Gauge(obs.MetricWindowEvents),
		windowPeak:     reg.Gauge(obs.MetricWindowPeak),
		sosSize:        reg.Gauge(obs.MetricSOSSize),
		sosPeak:        reg.Gauge(obs.MetricSOSPeak),
		gcPause:        reg.Gauge(obs.MetricGCPauseNs),
		gcCycles:       reg.Gauge(obs.MetricGCCycles),
		allocsPerEpoch: reg.Gauge(obs.MetricAllocsPerEpoch),
		gcCountdown:    1,
	}
	m.stages[stageFirstPass] = reg.Histogram(obs.MetricFirstPassNs)
	m.stages[stageSecondPass] = reg.Histogram(obs.MetricSecondPassNs)
	m.stages[stageSOSUpdate] = reg.Histogram(obs.MetricSOSUpdateNs)
	m.stages[stageDecode] = reg.Histogram(obs.MetricDecodeNs)
	m.sizer, _ = d.LG.(StateSizer)
	if d.Trace != nil {
		d.Trace.SetThreadName(tidDriver, "driver (SOS)")
		for t := 0; t < T; t++ {
			d.Trace.SetThreadName(tidWorker(t), "worker "+strconv.Itoa(t))
		}
		d.Trace.SetThreadName(tidDecoder(T), "decoder")
	}
	return m
}

// now returns the wall clock, or the zero time when uninstrumented — the
// single branch hot paths pay to skip the vdso call.
func (m *driverMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// stageDone records one stage execution: a histogram observation and a
// trace span on row tid for the given epoch.
func (m *driverMetrics) stageDone(s stage, epoch, tid int, start time.Time) {
	if m == nil {
		return
	}
	d := time.Since(start)
	m.stages[s].Observe(d)
	m.trace.Span(tid, stageNames[s], start, d, epoch)
}

// barrierDone records one worker's wait at a pipeline barrier.
func (m *driverMetrics) barrierDone(start time.Time) {
	if m == nil {
		return
	}
	m.barrierWait.Observe(time.Since(start))
}

// epochDone advances the run counters after an epoch is fully analyzed and
// periodically samples the runtime's GC statistics.
func (m *driverMetrics) epochDone(events, T int) {
	if m == nil {
		return
	}
	m.epochs.Inc()
	m.events.Add(int64(events))
	m.blocks.Add(int64(T))
	if m.reg != nil {
		if m.gcCountdown--; m.gcCountdown <= 0 {
			m.sampleGC()
			m.gcCountdown = gcSampleEvery
		}
	}
}

// sampleGC publishes GC pressure gauges: cumulative pause and cycle count
// straight from MemStats, and the recent per-epoch allocation rate from the
// Mallocs delta since the previous sample.
func (m *driverMetrics) sampleGC() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.gcPause.Set(int64(ms.PauseTotalNs))
	m.gcCycles.Set(int64(ms.NumGC))
	if m.gcLastMallocs != 0 {
		m.allocsPerEpoch.Set(int64((ms.Mallocs - m.gcLastMallocs) / gcSampleEvery))
	}
	m.gcLastMallocs = ms.Mallocs
}

// sosUpdated records the post-update SOS cardinality when the lifeguard
// can measure it.
func (m *driverMetrics) sosUpdated(s State) {
	if m == nil || m.sizer == nil {
		return
	}
	size := int64(m.sizer.StateSize(s))
	m.sosSize.Set(size)
	m.sosPeak.SetMax(size)
}

// windowSet records the number of events currently held by the sliding
// window, tracking the high-water mark.
func (m *driverMetrics) windowSet(events int64) {
	if m == nil {
		return
	}
	m.windowEvents.Set(events)
	m.windowPeak.SetMax(events)
}

// wingFolded counts one exclusive wing-aggregate row fold over T threads
// (2T AddWing + T MergeWings calls, see exclAggRow).
func (m *driverMetrics) wingFolded(T int) {
	if m == nil {
		return
	}
	m.wingFoldRows.Inc()
	m.wingFoldOps.Add(int64(3 * T))
}

// countReports bumps the per-code report counters. Called from the single
// collector goroutine, so the map lookup inside Counter is uncontended;
// reports are rare next to events either way.
func (m *driverMetrics) countReports(reps []Report) {
	if m == nil || m.reg == nil {
		return
	}
	for i := range reps {
		m.reg.Counter(obs.ReportsPrefix + reps[i].Code).Inc()
	}
}
