package server

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
	"butterfly/internal/trace"
)

// session is one trace-analysis session: a checkpointable incremental
// driver plus the bookkeeping needed to resume it after a disconnect. The
// Incremental IS the checkpoint — SOS plus the in-window epoch summaries
// fully summarize the strictly-ordered past (DESIGN.md §10), so a resumed
// client replays only un-acknowledged epochs, never the whole trace.
//
// Concurrency: a session is driven by at most one connection goroutine at a
// time; attachment is exclusive and guarded by the server's registry lock.
// The fields below the mutex-free line are therefore only ever touched by
// the currently attached goroutine (or, after detach, by nobody until the
// next attach or the eviction timer).
type session struct {
	id      string
	shortID string      // first 12 hex digits: log/metric/endpoint label
	traceID string      // cross-process correlation ID (Hello, sanitized)
	hello   proto.Hello // the creating Hello: lifeguard config and width
	created time.Time

	inc *core.Incremental
	rb  *epoch.RowBuilder

	// scope is this session's obs child scope ("session.<shortID>."); its
	// driver and server.* metrics chain into the globals, so one Add updates
	// both views. sm caches the handles the frame loop touches per epoch.
	scope *obs.Registry
	sm    sessionMetrics

	// flight is the session's always-on post-mortem ring (DESIGN.md §13).
	flight *obs.FlightRecorder

	// rec, when TraceDir is configured, records this session's driver spans;
	// traceOnce guards the one-shot file write at eviction.
	rec       *obs.TraceRecorder
	traceOnce sync.Once

	// rows/evRow are the session's pooled-decode state: epoch frames decode
	// straight into a recycled row's event backings (evRow is the scratch
	// view handed to the decoder), and the driver returns each row to the
	// pool once its second pass has consumed it. The most recently fed row
	// is the checkpoint and stays out of the pool across a detach/resume.
	rows  epoch.RowPool
	evRow [][]trace.Event

	// replay holds every non-empty tick's reports in tick order, so a
	// resuming client can be handed exactly the frames it missed. Memory is
	// bounded by the session quotas; reports on healthy workloads are rare.
	replay []proto.Reports
	// nreports counts all reports ever produced (the Done total).
	nreports int
	// replayBytes estimates what replay pins: each report's struct and its
	// Detail text.
	replayBytes int64

	bytesIn int64
	epochs  int64

	// wal, when the server has a durable store, is this session's
	// write-ahead log (DESIGN.md §14); it is written only by the attached
	// goroutine. degraded flips when a disk error dropped the session to
	// in-memory mode — atomic because /sessions reads it concurrently.
	// recovered marks a session rebuilt from the log at startup; set before
	// registration, immutable after.
	wal       *store.Log
	degraded  atomic.Bool
	recovered bool

	// quarantined flips when the session's lifeguard panicked and the
	// session was isolated — atomic because /sessions reads it concurrently.
	quarantined atomic.Bool
	// memEst is this session's latest memory estimate; its sum across
	// sessions is Server.memTotal. Written by the attached goroutine after
	// each feed, read concurrently by admission and /sessions.
	memEst atomic.Int64
	// slowStrikes counts tripped write deadlines (progressive disconnect:
	// detach first, evict repeat offenders). Attached-goroutine only.
	slowStrikes int

	// finished is set once End was processed and Done computed.
	finished bool
	done     proto.Done
	// aborted is set once a terminal Error frame was flushed toward the
	// client; the handler then lingers on the close (Server.lingerClose).
	aborted bool

	// attached/evictTimer are guarded by Server.mu (registry transitions).
	attached   bool
	evictTimer *time.Timer
}

// sessionMetrics caches the scope handles the per-epoch frame loop
// touches. Every handle chains into the global series of the same name, so
// sm.bytesIn.Add both labels the session and feeds server.bytes_in. All
// handles are nil (safe no-ops) when the server runs without a registry.
type sessionMetrics struct {
	epochs, bytesIn, framesIn, reportsOut *obs.Counter
	ackFlushes                            *obs.Counter
	feedNs, waitNs                        *obs.Histogram
	windowEvents                          *obs.Gauge
}

func newSessionMetrics(scope *obs.Registry) sessionMetrics {
	return sessionMetrics{
		epochs:       scope.Counter(obs.MetricEpochs),
		bytesIn:      scope.Counter(obs.MetricServerBytesIn),
		framesIn:     scope.Counter(obs.MetricServerFramesIn),
		ackFlushes:   scope.Counter(obs.MetricServerAckFlushes),
		reportsOut:   scope.Counter(obs.MetricServerReportsOut),
		feedNs:       scope.Histogram(obs.MetricServerFeedNs),
		waitNs:       scope.Histogram(obs.MetricServerAcquireWaitNs),
		windowEvents: scope.Gauge(obs.MetricWindowEvents),
	}
}

// newSessionID returns a 128-bit random token.
func newSessionID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// sanitizeTraceID accepts a client-proposed trace ID for use in logs,
// metric names and file paths: [A-Za-z0-9._-] only, at most 64 bytes.
// Anything else — including an absent ID — is replaced with a fresh one,
// so a hostile Hello cannot inject into the observability plane.
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > 64 {
		return obs.NewTraceID()
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return obs.NewTraceID()
		}
	}
	return id
}

// newSession validates a fresh Hello and builds its session; when the
// server has a durable store the session's write-ahead log is opened too.
// Store trouble downgrades the session to in-memory mode, it never refuses
// the Hello: durability is best-effort, analysis is the contract.
func (s *Server) newSession(h proto.Hello) (*session, *proto.Reject) {
	id, err := newSessionID()
	if err != nil {
		return nil, &proto.Reject{Code: "internal", Reason: err.Error()}
	}
	sess, rej := s.buildSession(h, id)
	if rej != nil {
		return nil, rej
	}
	if s.cfg.Store != nil {
		meta := store.Meta{Session: id, TraceID: sess.traceID, Hello: h,
			CreatedUnixNs: sess.created.UnixNano()}
		wal, err := s.cfg.Store.Create(id, meta, sess.scope)
		if err != nil {
			sess.degraded.Store(true)
			s.cfg.Store.DegradedCounter().Inc()
			s.log.Error("session store unavailable; session is in-memory only",
				"session", sess.shortID, "trace", sess.traceID, "err", err.Error())
		} else {
			sess.wal = wal
		}
	}
	return sess, nil
}

// durable reports whether the session's acks are being persisted.
func (sess *session) durable() bool {
	return sess.wal != nil && !sess.degraded.Load()
}

// buildSession constructs a session from a Hello and a session token — the
// shared core of fresh admission (newSession) and crash recovery
// (rebuildSession), so a recovered session is built by exactly the code
// that built it the first time.
func (s *Server) buildSession(h proto.Hello, id string) (*session, *proto.Reject) {
	if h.NumThreads <= 0 || h.NumThreads > s.cfg.MaxThreads {
		return nil, &proto.Reject{Code: "bad-request",
			Reason: fmt.Sprintf("thread count %d outside 1..%d", h.NumThreads, s.cfg.MaxThreads)}
	}
	lg, err := registry.New(h.Lifeguard, registry.Options{HeapBase: h.HeapBase, Relaxed: h.Relaxed})
	if err != nil {
		return nil, &proto.Reject{Code: "bad-request", Reason: err.Error()}
	}
	shortID := id[:12]
	traceID := sanitizeTraceID(h.TraceID)
	scope := s.cfg.Obs.Scope(obs.SessionScopePrefix + shortID + ".")
	var rec *obs.TraceRecorder
	if s.cfg.TraceDir != "" {
		rec = obs.NewTraceRecorder()
		rec.SetProcess(2, "butterflyd session="+shortID)
		rec.SetMeta("trace_id", traceID)
		rec.SetMeta("session", shortID)
	}
	d := &core.Driver{LG: lg, Parallel: !h.Serial, Obs: scope, Trace: rec}
	inc, err := d.NewIncrementalTrimmed(h.NumThreads)
	if err != nil {
		scope.Drop()
		return nil, &proto.Reject{Code: "bad-request", Reason: err.Error()}
	}
	sess := &session{
		id:      id,
		shortID: shortID,
		traceID: traceID,
		hello:   h,
		created: time.Now(),
		inc:     inc,
		rb:      epoch.NewRowBuilder(h.NumThreads),
		scope:   scope,
		sm:      newSessionMetrics(scope),
		flight:  obs.NewFlightRecorder(s.cfg.FlightDepth),
		rec:     rec,
		evRow:   make([][]trace.Event, h.NumThreads),
	}
	inc.SetRowRecycler(sess.rows.Put)
	return sess, nil
}

// writeTrace writes the session's Chrome trace to dir exactly once —
// called at eviction (completion, error, grace expiry, shutdown). No-op
// unless the server was configured with a TraceDir.
func (sess *session) writeTrace(dir string, log *slog.Logger) {
	if dir == "" || sess.rec == nil {
		return
	}
	sess.traceOnce.Do(func() {
		path := filepath.Join(dir, "session-"+sess.shortID+".json")
		// Stream into a temporary name and rename once complete: whoever
		// finds session-*.json by glob (an operator tailing the directory)
		// must never read a half-written file.
		tmp := path + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			log.Error("session trace not written", "session", sess.shortID, "err", err.Error())
			return
		}
		bw := bufio.NewWriter(f)
		err = sess.rec.WriteJSON(bw)
		if e := bw.Flush(); err == nil {
			err = e
		}
		if e := f.Close(); err == nil {
			err = e
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
			log.Error("session trace not written", "session", sess.shortID, "path", path, "err", err.Error())
			return
		}
		log.Info("session trace written", "session", sess.shortID, "trace", sess.traceID, "path", path)
	})
}

// replayAfter returns the report frames for ticks after acked, in order.
func (sess *session) replayAfter(acked int) []proto.Reports {
	i := 0
	for i < len(sess.replay) && sess.replay[i].Epoch <= acked {
		i++
	}
	return sess.replay[i:]
}
