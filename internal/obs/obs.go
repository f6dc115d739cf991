// Package obs is the telemetry layer of the butterfly drivers and of
// butterflyd: a lock-cheap metrics registry (atomic counters, gauges and
// fixed-bucket latency histograms) with per-session child scopes, a Chrome
// trace-event recorder that makes the pipelined F(l) ∥ S(l−1) ∥ SOS overlap
// visible in Perfetto and correlates client and server traces by trace ID,
// a structured (log/slog) logger factory, a per-session flight recorder for
// post-mortems, a debug HTTP server (Prometheus text + expvar +
// net/http/pprof + JSON health/introspection endpoints), a progress
// heartbeat and an end-of-run summary table.
//
// Everything is designed so that *absence* of instrumentation costs
// (almost) nothing: every method on *Registry, *Counter, *Gauge,
// *Histogram and *TraceRecorder is safe on a nil receiver and returns
// immediately, so call sites resolve handles once and call through them
// unconditionally. The drivers additionally guard their time.Now calls on
// a single nil check per stage (see internal/core/metrics.go), keeping the
// nil-registry hot path within noise of the uninstrumented driver — the
// benchmark's obs.registry_overhead_share measures it.
//
// Metric values are int64 throughout. By convention a histogram whose name
// ends in ".ns" records durations in nanoseconds and is rendered as a
// duration; anything else is a plain quantity (queue depths, set sizes).
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names reported by the drivers. The one-line meanings
// live in DESIGN.md §9; keeping the names here makes the CLI, the progress
// monitor and the summary renderer agree with the drivers by construction.
const (
	// Counters.
	MetricEpochs        = "driver.epochs"          // epochs fully analyzed
	MetricEvents        = "driver.events"          // application events analyzed
	MetricBlocks        = "driver.blocks"          // blocks (epoch × thread) analyzed
	MetricWingFoldRows  = "wing.fold_rows"         // epoch rows folded into wing unions
	MetricWingFoldOps   = "wing.fold_ops"          // runs those folds wrote
	MetricPrefetchStall = "prefetch.stalls"        // analysis found the prefetch queue empty
	MetricDecodeStall   = "prefetch.decode_stalls" // decoder found the prefetch queue full
	MetricTicksInline   = "driver.ticks.inline"    // ticks whose passes ran on the feeding goroutine
	MetricTicksFanout   = "driver.ticks.fanout"    // ticks whose passes ran on the T workers
	// ReportsPrefix + <report code> counts reports by kind (e.g.
	// "reports.addrcheck.concurrent-metadata-change").
	ReportsPrefix = "reports."

	// Histograms (".ns" suffix ⇒ nanosecond durations).
	MetricFirstPassNs   = "stage.first_pass.ns"   // one observation per (epoch, thread)
	MetricSecondPassNs  = "stage.second_pass.ns"  // one observation per (epoch, thread)
	MetricSOSUpdateNs   = "stage.sos_update.ns"   // one observation per epoch (single writer)
	MetricDecodeNs      = "stage.decode.ns"       // one observation per decoded epoch row
	MetricBarrierWaitNs = "stage.barrier_wait.ns" // per worker per barrier crossing
	MetricPrefetchWait  = "prefetch.wait.ns"      // analysis-side wait for the next row
	MetricPrefetchDepth = "prefetch.depth"        // queue depth seen at each consume

	// Gauges.
	MetricWindowEvents = "window.events"      // events held in the live sliding window
	MetricWindowPeak   = "window.peak_events" // high-water mark of window.events
	MetricSOSSize      = "sos.size"           // lifeguard SOS cardinality after each update
	MetricSOSPeak      = "sos.peak_size"      // high-water mark of sos.size

	// Names left from address sharding (DESIGN.md §11). Nothing records
	// them; they remain because the benchmark program still reads them.
	MetricShardTasks  = "shard.tasks"    // counter: always 0
	MetricShardTaskNs = "stage.shard.ns" // histogram: always empty

	// Memory-discipline metrics (DESIGN.md §12). Instrumented drivers
	// sample runtime.ReadMemStats every few epochs; a pooled steady state
	// shows allocs.per.epoch near zero and gc.cycles barely moving.
	MetricGCPauseNs      = "gc.pause.ns"      // gauge: cumulative GC stop-the-world pause
	MetricGCCycles       = "gc.cycles"        // gauge: completed GC cycles
	MetricAllocsPerEpoch = "allocs.per.epoch" // gauge: heap objects allocated per epoch, recent window

	// butterflyd service metrics (internal/server). Counters unless noted;
	// driver-stage metrics above aggregate across sessions, since every
	// session's driver shares the server's registry.
	MetricSessionsActive    = "server.sessions.active"    // gauge: sessions with a live connection
	MetricSessionsDetached  = "server.sessions.detached"  // gauge: checkpointed sessions awaiting resume
	MetricSessionsAccepted  = "server.sessions.accepted"  // Hello accepted (fresh sessions)
	MetricSessionsRejected  = "server.sessions.rejected"  // Hello rejected (full/draining/bad request)
	MetricSessionsResumed   = "server.sessions.resumed"   // successful checkpoint reattachments
	MetricSessionsEvicted   = "server.sessions.evicted"   // sessions dropped by grace expiry or quota/protocol errors
	MetricSessionsCompleted = "server.sessions.completed" // sessions that reached Done
	MetricServerBytesIn     = "server.bytes_in"           // wire bytes received across all sessions
	MetricServerFramesIn    = "server.frames_in"          // frames received across all sessions
	MetricServerAckFlushes  = "server.ack_flushes"        // socket flushes after Acks (several Acks may share one)
	MetricServerReportsOut  = "server.reports_out"        // reports streamed back to clients

	// Per-epoch service latencies (histograms, DESIGN.md §13). Both exist
	// globally and — through per-session scopes — per session.
	MetricServerFeedNs        = "server.feed.ns"         // wall time of one epoch tick incl. worker-slot wait
	MetricServerAcquireWaitNs = "server.acquire_wait.ns" // worker-slot (backpressure) wait per epoch tick

	// Durable session store (internal/store, DESIGN.md §14). The wal.*
	// series exist globally and per session scope; the store.* recovery
	// series are process-wide (recovery runs before any session scope
	// exists).
	MetricWALAppends   = "wal.appends"   // counter: records appended
	MetricWALBytes     = "wal.bytes"     // counter: bytes appended (headers + payloads + CRCs)
	MetricWALFsyncs    = "wal.fsyncs"    // counter: fsync calls issued
	MetricWALFsyncNs   = "wal.fsync.ns"  // histogram: fsync latency
	MetricWALSnapshots = "wal.snapshots" // counter: snapshot records written
	MetricWALDegraded  = "wal.degraded"  // counter: sessions dropped to in-memory mode on disk errors

	MetricStoreRecoveredSessions = "store.recovered.sessions" // counter: sessions rebuilt at startup
	MetricStoreRecoveredEpochs   = "store.recovered.epochs"   // counter: epoch records replayed at startup
	MetricStoreRecoveryDropped   = "store.recovery.dropped"   // counter: unrecoverable session dirs discarded
	MetricStoreRecoveryNs        = "store.recovery.ns"        // histogram: per-session replay wall time

	// Fault injection and overload control (DESIGN.md §15).
	MetricFaultInjected       = "fault.injected"              // counter: faults fired by the failpoint plane
	MetricSessionsQuarantined = "server.sessions.quarantined" // counter: sessions isolated after a lifeguard panic
	MetricServerWriteTimeouts = "server.write.timeouts"       // counter: slow-client write deadlines tripped
	MetricServerIdleGCs       = "server.idle_gcs"             // counter: GCs run when the last session ended and no connection remained
	MetricMemBudgetEstimate   = "mem.budget.estimate"         // gauge: estimated bytes held across all sessions
	MetricMemBudgetRejects    = "mem.budget.rejects"          // counter: admissions/resumes shed with Reject(overloaded)
	MetricMemBudgetShed       = "mem.budget.shed"             // counter: attached sessions detached to relieve memory pressure

	// SessionScopePrefix + <short session id> + "." prefixes every metric of
	// one butterflyd session's obs scope (Registry.Scope, DESIGN.md §13):
	// "session.3f2a81c4d09e.driver.epochs" is session 3f2a81c4d09e's own
	// epoch counter, chained to the process-wide "driver.epochs".
	SessionScopePrefix = "session."
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; a nil *Counter ignores writes and reads as zero. A counter resolved
// through a scoped registry (Registry.Scope) carries a parent chain: one
// Add updates the scoped series and every enclosing aggregate with one
// extra atomic add per level — still wait-free, still no locks.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Add increments the counter (and its scope parents) by n.
func (c *Counter) Add(n int64) {
	for ; c != nil; c = c.parent {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level. The zero value is ready to use; a nil
// *Gauge ignores writes and reads as zero. Scoped gauges chain like
// counters: a write lands on the scoped series and its parents (for Set
// that makes the aggregate last-writer-wins across scopes, exactly the
// sharing sessions had before scopes existed).
type Gauge struct {
	v      atomic.Int64
	parent *Gauge
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	for ; g != nil; g = g.parent {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	for ; g != nil; g = g.parent {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// lock-free high-water-mark operation behind the *.peak_* gauges.
func (g *Gauge) SetMax(v int64) {
	for ; g != nil; g = g.parent {
		for {
			cur := g.v.Load()
			if v <= cur || g.v.CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics. Lookup (Counter/Gauge/Histogram) takes a
// mutex and is meant for setup paths; hot paths resolve handles once and
// use the returned pointers, whose operations are single atomic
// instructions. All methods are safe on a nil *Registry: lookups return
// nil handles, which in turn ignore all operations.
//
// A Registry is either a root (New) or a scope of one (Scope). A scope is
// a prefixed view: metrics it resolves live in the root's map under
// prefix+name — so they appear on /metrics and in Snapshot alongside
// everything else — and each scoped handle is chained to the same-named
// handle of the registry the scope was derived from. Writing through a
// scoped handle therefore updates the per-scope series and the aggregate
// with one extra atomic operation, no locks. butterflyd gives every
// session a scope ("session.<id>."), which is how per-session stage
// latencies and server counters coexist with the process-wide ones.
type Registry struct {
	mu    sync.Mutex
	m     map[string]any
	start time.Time

	// Scope state: root points at the registry owning the metric map (nil
	// for a root), scopeOf at the registry Scope was called on (the parent
	// chain target), prefix is the accumulated name prefix.
	root    *Registry
	scopeOf *Registry
	prefix  string
}

// New returns an empty root registry. Its creation time anchors the
// elapsed time and rates shown by Summary.
func New() *Registry {
	return &Registry{m: map[string]any{}, start: time.Now()}
}

// base returns the registry owning the metric map (r itself for a root).
func (r *Registry) base() *Registry {
	if r.root != nil {
		return r.root
	}
	return r
}

// Scope returns a child view registering every metric under prefix+name
// and chaining each handle to the same-named metric of r, so scoped writes
// aggregate upward automatically. Scopes nest (each level adds one atomic
// op per write) and are cheap to create: they share the root's map and
// mutex and hold no metrics of their own. Scope on a nil registry returns
// nil, keeping the whole chain no-op.
func (r *Registry) Scope(prefix string) *Registry {
	if r == nil {
		return nil
	}
	base := r.base()
	return &Registry{root: base, scopeOf: r, prefix: r.prefix + prefix, start: base.start}
}

// Drop removes every metric of this scope from the root registry — the
// teardown for ephemeral scopes (a finished butterflyd session), keeping
// /metrics cardinality bounded by *live* sessions. Handles already
// resolved from the scope stay valid; their writes keep aggregating
// upward, they just no longer appear in the exposition. Drop on a root
// registry (or nil) is a no-op.
func (r *Registry) Drop() {
	if r == nil || r.prefix == "" {
		return
	}
	base := r.base()
	base.mu.Lock()
	defer base.mu.Unlock()
	for name := range base.m {
		if strings.HasPrefix(name, r.prefix) {
			delete(base.m, name)
		}
	}
}

// Start returns the registry's creation time (a scope reports its root's).
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// lookup returns the metric registered under r.prefix+name, creating it
// with mk on first use. For scopes, parentOf resolves the same-named
// metric one level up (recursively creating the whole chain); it runs
// outside the map lock because it re-enters lookup. Registering one name
// with two different types panics: metric names are a compile-time-style
// contract, so a collision is a bug.
func lookup[T any](r *Registry, name string, mk func(parent *T) *T, parentOf func() *T) *T {
	if r == nil {
		return nil
	}
	base := r.base()
	full := r.prefix + name
	base.mu.Lock()
	if m, ok := base.m[full]; ok {
		base.mu.Unlock()
		return assertMetric[T](full, m)
	}
	base.mu.Unlock()
	var parent *T
	if r.scopeOf != nil {
		parent = parentOf()
	}
	base.mu.Lock()
	defer base.mu.Unlock()
	if m, ok := base.m[full]; ok { // lost a creation race
		return assertMetric[T](full, m)
	}
	t := mk(parent)
	base.m[full] = t
	return t
}

func assertMetric[T any](name string, m any) *T {
	t, ok := m.(*T)
	if !ok {
		panic("obs: metric " + name + " registered with a different type")
	}
	return t
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name,
		func(parent *Counter) *Counter { return &Counter{parent: parent} },
		func() *Counter { return r.scopeOf.Counter(name) })
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, name,
		func(parent *Gauge) *Gauge { return &Gauge{parent: parent} },
		func() *Gauge { return r.scopeOf.Gauge(name) })
}

// Histogram returns the histogram registered under name, creating it if new.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name,
		func(parent *Histogram) *Histogram { return &Histogram{parent: parent} },
		func() *Histogram { return r.scopeOf.Histogram(name) })
}

// Each calls fn for every registered metric in name order. The metric is
// one of *Counter, *Gauge or *Histogram. On a scope, Each visits only the
// scope's own metrics and strips the prefix, so Snapshot/Summary of a
// session scope describe just that session.
func (r *Registry) Each(fn func(name string, metric any)) {
	if r == nil {
		return
	}
	base := r.base()
	base.mu.Lock()
	names := make([]string, 0, len(base.m))
	for name := range base.m {
		if strings.HasPrefix(name, r.prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	metrics := make([]any, len(names))
	for i, name := range names {
		metrics[i] = base.m[name]
	}
	base.mu.Unlock()
	for i, name := range names {
		fn(strings.TrimPrefix(name, r.prefix), metrics[i])
	}
}

// Snapshot returns a plain map of every metric's current value — counters
// and gauges as int64, histograms as a nested map with count/sum/quantiles.
// It is the expvar representation of the registry.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	r.Each(func(name string, metric any) {
		switch m := metric.(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *Histogram:
			qs := m.Quantiles(0.50, 0.95, 0.99)
			out[name] = map[string]any{
				"count": m.Count(),
				"sum":   m.Sum(),
				"p50":   qs[0],
				"p95":   qs[1],
				"p99":   qs[2],
				"max":   m.Max(),
			}
		}
	})
	return out
}
