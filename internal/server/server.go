// Package server implements butterflyd: a TCP service running many
// concurrent butterfly-analysis sessions, each an incremental streaming
// driver (core.Incremental) fed over the length-prefixed wire protocol of
// internal/proto.
//
// The service adds what the in-process driver cannot provide on its own:
//
//   - Admission control: a bounded session registry (Hello is rejected when
//     full or draining) and a bounded analysis worker pool — at most
//     MaxAnalyze epoch ticks run at once across all sessions, and a session
//     whose tick is waiting for a slot simply stops reading its connection,
//     which pushes back on the client through TCP flow control.
//   - Quotas: per-session wire-byte and epoch budgets; exceeding one aborts
//     the session with a typed error.
//   - Checkpoint/resume: every Ack(l) promises tick l is folded into the
//     session's in-memory checkpoint (the Incremental's SOS + window). A
//     dropped connection detaches the session for a grace period; a client
//     that re-dials with the session token resumes from the next epoch, and
//     missed report frames are replayed from the session's replay buffer.
//   - Graceful drain: Shutdown stops accepting sessions, lets live ones
//     finish within the context's deadline, then force-closes.
//
// All sessions share one obs.Registry: the server counters (sessions
// accepted/rejected/resumed/evicted, bytes in, reports out) sit alongside
// the per-stage driver latencies, and obs.StartDebugServer exposes both.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"butterfly/internal/failpoint"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
)

// Config parameterizes a Server. The zero value is usable: Defaults fills
// unset fields.
type Config struct {
	// MaxSessions bounds live sessions (attached + detached). 0 → 64.
	MaxSessions int
	// MaxAnalyze bounds concurrently running analysis ticks across all
	// sessions — the worker pool. 0 → GOMAXPROCS.
	MaxAnalyze int
	// MaxThreads bounds a session's application thread count. 0 → 1024.
	MaxThreads int
	// MaxSessionBytes is the per-session wire-byte quota. 0 → unlimited.
	MaxSessionBytes int64
	// MaxSessionEpochs is the per-session epoch quota. 0 → unlimited.
	MaxSessionEpochs int64
	// DetachGrace is how long a disconnected session's checkpoint is
	// retained for resume. 0 → 2 minutes.
	DetachGrace time.Duration
	// HelloTimeout bounds how long a fresh connection may take to present
	// its Hello. 0 → 10 seconds.
	HelloTimeout time.Duration
	// WriteTimeout bounds each write toward a client: a session whose reader
	// stalls past it is disconnected (detached first, evicted on repeat
	// offense) instead of wedging its handler on a full TCP buffer.
	// 0 → 30 seconds; negative → no deadline.
	WriteTimeout time.Duration
	// MemBudget bounds the estimated bytes held by all sessions together
	// (sliding windows, SOS state, replay buffers — DESIGN.md §15). Above
	// it, fresh Hellos and resumes are shed with Reject("overloaded") and
	// the feeding path detaches sessions to stop the inflow; in-flight
	// epochs are never aborted. 0 → unlimited.
	MemBudget int64
	// SessionMemBudget bounds one session's estimate; a breach aborts that
	// session with a "quota-mem" error. 0 → unlimited.
	SessionMemBudget int64
	// Obs, when non-nil, receives service and driver telemetry. Each session
	// additionally gets a child scope ("session.<shortID>.*", DESIGN.md §13)
	// whose metrics chain into the globals.
	Obs *obs.Registry
	// Log receives structured lifecycle and error events. nil → discard.
	Log *slog.Logger
	// TraceDir, when set, makes every session record a Chrome trace of its
	// driver spans, written to TraceDir/session-<shortID>.json at eviction.
	// The trace carries the Hello's trace ID, so it merges with the client's
	// -trace-out file (obs.MergeTraces) into one cross-process timeline.
	TraceDir string
	// FlightDepth sizes each session's flight-recorder ring. 0 → 256.
	FlightDepth int
	// Store, when non-nil, is the durable session store (internal/store,
	// DESIGN.md §14): every session's epoch frames are written to a
	// per-session WAL before each Ack, Listen rebuilds surviving sessions
	// from the store directory by deterministic replay, and disk errors
	// degrade the affected session to in-memory mode instead of failing it.
	Store *store.Store
}

// withDefaults returns cfg with unset fields filled.
func (cfg Config) withDefaults() Config {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	if cfg.MaxAnalyze <= 0 {
		cfg.MaxAnalyze = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxThreads <= 0 {
		cfg.MaxThreads = 1024
	}
	if cfg.DetachGrace <= 0 {
		cfg.DetachGrace = 2 * time.Minute
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = obs.DiscardLogger()
	}
	return cfg
}

// Server is a butterflyd instance.
type Server struct {
	cfg     Config
	ln      net.Listener
	sem     chan struct{} // analysis worker slots
	log     *slog.Logger
	started time.Time

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[net.Conn]struct{}
	draining bool

	// memTotal is the summed per-session memory estimate (sess.memEst); the
	// budget plane reads it lock-free at admission and after every feed.
	memTotal atomic.Int64

	wg sync.WaitGroup // live connection handlers

	m serverMetrics
}

// serverMetrics holds the resolved registry-level obs handles (nil-safe
// when unset). Per-session wire counters (bytes/frames/reports) live in
// sessionMetrics: the scope handles chain into the same-named globals, so
// one Add updates both views.
type serverMetrics struct {
	active, detached                                *obs.Gauge
	accepted, rejected, resumed, evicted, completed *obs.Counter
	quarantined, memRejects, memShed, writeTimeouts *obs.Counter
	idleGCs                                         *obs.Counter
	memEstimate                                     *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		active:        reg.Gauge(obs.MetricSessionsActive),
		detached:      reg.Gauge(obs.MetricSessionsDetached),
		accepted:      reg.Counter(obs.MetricSessionsAccepted),
		rejected:      reg.Counter(obs.MetricSessionsRejected),
		resumed:       reg.Counter(obs.MetricSessionsResumed),
		evicted:       reg.Counter(obs.MetricSessionsEvicted),
		completed:     reg.Counter(obs.MetricSessionsCompleted),
		quarantined:   reg.Counter(obs.MetricSessionsQuarantined),
		memRejects:    reg.Counter(obs.MetricMemBudgetRejects),
		memShed:       reg.Counter(obs.MetricMemBudgetShed),
		writeTimeouts: reg.Counter(obs.MetricServerWriteTimeouts),
		idleGCs:       reg.Counter(obs.MetricServerIdleGCs),
		memEstimate:   reg.Gauge(obs.MetricMemBudgetEstimate),
	}
}

// Listen binds a butterflyd server to addr (":0" picks a free port). With a
// durable store configured, sessions that survived a previous process are
// rebuilt — replayed through fresh drivers and registered detached — before
// the listener accepts anyone, so a resuming client can never race its own
// recovery.
func Listen(addr string, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		sem:      make(chan struct{}, cfg.MaxAnalyze),
		log:      cfg.Log,
		started:  time.Now(),
		sessions: map[string]*session{},
		conns:    map[net.Conn]struct{}{},
		m:        newServerMetrics(cfg.Obs),
	}
	if failpoint.Enabled() && cfg.Obs != nil {
		// fault.injected counts every fired failpoint; process-global like
		// the plane itself (chaos builds host one fault plan at a time).
		fi := cfg.Obs.Counter(obs.MetricFaultInjected)
		failpoint.SetObserver(func(string) { fi.Inc() })
	}
	if cfg.Store != nil {
		if err := s.recoverSessions(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until the listener is closed (Shutdown). It
// returns nil on a clean shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown drains the server: no new sessions are admitted, live
// connections may finish until ctx expires, then everything is closed and
// all checkpoints are dropped. Safe to call once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.ln.Close()
	s.log.Info("server draining")

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-finished
	}

	// Drop every remaining checkpoint (detached sessions waiting on grace
	// timers would otherwise pin their pipeline workers). Cleanup runs
	// outside the lock: it closes pipelines and may write trace files.
	s.mu.Lock()
	var victims []*session
	for id, sess := range s.sessions {
		if sess.evictTimer != nil {
			sess.evictTimer.Stop()
		}
		delete(s.sessions, id)
		victims = append(victims, sess)
	}
	s.mu.Unlock()
	for _, sess := range victims {
		// dropWAL=false: a drained session's log stays on disk — surviving
		// the restart is exactly what the durable store is for.
		s.cleanupSession(sess, false)
	}
	return err
}

// acquire takes an analysis worker slot; release returns it.
func (s *Server) acquire() { s.sem <- struct{}{} }
func (s *Server) release() { <-s.sem }

// tryAcquire takes an analysis slot only if one is free at once.
func (s *Server) tryAcquire() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// admit registers a fresh session, enforcing the admission bound.
func (s *Server) admit(h proto.Hello) (*session, *proto.Reject) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, &proto.Reject{Code: "draining", Reason: "server is shutting down"}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return nil, &proto.Reject{Code: "full",
			Reason: fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions)}
	}
	s.mu.Unlock()
	if rej := s.overloadedReject(); rej != nil {
		return nil, rej
	}

	sess, rej := s.newSession(h)
	if rej != nil {
		return nil, rej
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.cleanupSession(sess, true)
		return nil, &proto.Reject{Code: "draining", Reason: "server is shutting down"}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.cleanupSession(sess, true)
		return nil, &proto.Reject{Code: "full",
			Reason: fmt.Sprintf("session limit %d reached", s.cfg.MaxSessions)}
	}
	sess.attached = true
	s.sessions[sess.id] = sess
	s.m.active.Add(1)
	return sess, nil
}

// reattach resumes a detached session.
func (s *Server) reattach(h proto.Hello) (*session, *proto.Reject) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[h.Resume]
	if !ok {
		return nil, &proto.Reject{Code: "unknown-session",
			Reason: "no such session (expired, evicted, or never existed)"}
	}
	if sess.attached {
		return nil, &proto.Reject{Code: "busy", Reason: "session already has a live connection"}
	}
	if h.NumThreads != sess.hello.NumThreads || h.Lifeguard != sess.hello.Lifeguard {
		return nil, &proto.Reject{Code: "bad-request", Reason: "resume Hello does not match the session"}
	}
	if h.AckedEpoch >= sess.inc.NextEpoch() {
		// The client holds an Ack the session no longer covers: a restarted
		// server recovered less progress than was promised (fsync=off after a
		// power loss, or a degraded log). Resuming would silently re-analyze
		// epochs the client already discarded — refuse instead.
		return nil, &proto.Reject{Code: "lost-progress",
			Reason: fmt.Sprintf("client acked epoch %d but the session resumes at %d",
				h.AckedEpoch, sess.inc.NextEpoch())}
	}
	if s.cfg.MemBudget > 0 && s.memTotal.Load() > s.cfg.MemBudget && s.anyAttachedLocked(sess) {
		// Shed the resume only while some other attached session is making
		// progress: an idle over-budget server must always let its last
		// client back in, or a too-small budget starves everyone forever.
		s.m.memRejects.Inc()
		return nil, &proto.Reject{Code: "overloaded",
			Reason: fmt.Sprintf("memory budget exhausted (%d of %d bytes estimated)",
				s.memTotal.Load(), s.cfg.MemBudget)}
	}
	if sess.evictTimer != nil {
		sess.evictTimer.Stop()
		sess.evictTimer = nil
	}
	sess.attached = true
	s.m.detached.Add(-1)
	s.m.active.Add(1)
	return sess, nil
}

// overloadedReject sheds a fresh Hello when the memory budget is exhausted
// and at least one attached session is draining it down.
func (s *Server) overloadedReject() *proto.Reject {
	if s.cfg.MemBudget <= 0 || s.memTotal.Load() <= s.cfg.MemBudget {
		return nil
	}
	s.mu.Lock()
	live := s.anyAttachedLocked(nil)
	s.mu.Unlock()
	if !live {
		return nil // nobody is holding the memory hostage; admit and proceed
	}
	s.m.memRejects.Inc()
	return &proto.Reject{Code: "overloaded",
		Reason: fmt.Sprintf("memory budget exhausted (%d of %d bytes estimated)",
			s.memTotal.Load(), s.cfg.MemBudget)}
}

// anyAttachedLocked reports whether any session other than skip has a live
// connection. Caller holds s.mu.
func (s *Server) anyAttachedLocked(skip *session) bool {
	for _, sess := range s.sessions {
		if sess != skip && sess.attached {
			return true
		}
	}
	return false
}

// detach parks a session for later resume; its checkpoint survives until
// the grace timer fires.
func (s *Server) detach(sess *session) {
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; !ok {
		s.mu.Unlock()
		return // already evicted
	}
	sess.attached = false
	s.m.active.Add(-1)
	s.m.detached.Add(1)
	s.startEvictTimerLocked(sess)
	s.mu.Unlock()
	sess.flight.Record(obs.FlightNote, -1, 0, 0, "detached")
	s.log.Info("session detached", "session", sess.shortID, "trace", sess.traceID,
		"epochs", sess.sm.epochs.Value())
}

// startEvictTimerLocked arms a detached session's grace timer. Caller holds
// s.mu. Used by detach and by recovery, which registers rebuilt sessions as
// detached: an owner that never returns must not pin them forever.
func (s *Server) startEvictTimerLocked(sess *session) {
	sess.evictTimer = time.AfterFunc(s.cfg.DetachGrace, func() {
		s.mu.Lock()
		if cur, ok := s.sessions[sess.id]; !ok || cur != sess || sess.attached {
			s.mu.Unlock()
			return // resumed (or replaced) before the timer won the lock
		}
		delete(s.sessions, sess.id)
		s.m.detached.Add(-1)
		s.m.evicted.Inc()
		s.mu.Unlock()
		s.log.Info("session evicted", "session", sess.shortID, "trace", sess.traceID,
			"reason", "detach grace expired", "epochs", sess.sm.epochs.Value())
		s.cleanupSession(sess, true)
	})
}

// evict removes an attached session permanently (completion, quota breach,
// protocol error).
func (s *Server) evict(sess *session, completed bool) {
	s.mu.Lock()
	if _, ok := s.sessions[sess.id]; !ok {
		s.mu.Unlock()
		return
	}
	delete(s.sessions, sess.id)
	if sess.attached {
		s.m.active.Add(-1)
	} else {
		s.m.detached.Add(-1)
	}
	if completed {
		s.m.completed.Inc()
	} else {
		s.m.evicted.Inc()
	}
	s.mu.Unlock()
	if completed {
		s.log.Info("session completed", "session", sess.shortID, "trace", sess.traceID,
			"epochs", sess.done.Epochs, "events", sess.done.Events, "reports", sess.done.Reports)
	}
	s.cleanupSession(sess, true)
}

// cleanupSession releases everything a removed session holds: the pipeline
// workers, its metric scope (bounding /metrics cardinality to live
// sessions), its WAL, and — when tracing — its trace file. dropWAL deletes
// the log's segments (eviction and completion: the session is over, its
// durable state is garbage); Shutdown passes false so logs survive the
// restart. Exactly one caller runs this per session: evict, the grace
// timer, and Shutdown all race on the registry delete and only the winner
// proceeds here.
func (s *Server) cleanupSession(sess *session, dropWAL bool) {
	s.m.memEstimate.Set(s.memTotal.Add(-sess.memEst.Swap(0)))
	sess.inc.Close()
	if sess.wal != nil {
		if dropWAL {
			if err := sess.wal.Remove(); err != nil {
				s.log.Warn("session wal not removed", "session", sess.shortID, "err", err.Error())
			}
		} else if err := sess.wal.Close(); err != nil {
			s.log.Warn("session wal close failed", "session", sess.shortID, "err", err.Error())
		}
	}
	sess.scope.Drop()
	sess.writeTrace(s.cfg.TraceDir, s.log)
}

// degradeSession drops a session to in-memory mode after a WAL write
// failure (ENOSPC, a yanked disk): the analysis continues, the durability
// promise is withdrawn, and the half-written log is removed so a later
// restart can never resurrect the session with less progress than this
// process acknowledged.
func (s *Server) degradeSession(sess *session, err error) {
	sess.degraded.Store(true)
	s.cfg.Store.DegradedCounter().Inc()
	sess.flight.Record(obs.FlightError, -1, 0, 0, "wal degraded: "+err.Error())
	s.log.Error("session degraded to in-memory mode", "session", sess.shortID,
		"trace", sess.traceID, "err", err.Error())
	if rerr := sess.wal.Remove(); rerr != nil {
		s.log.Warn("degraded session wal not removed", "session", sess.shortID, "err", rerr.Error())
	}
}

// handleConn runs one connection: Hello handshake, then the session loop.
func (s *Server) handleConn(conn net.Conn) {
	served := false // this connection ran a session
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		idle := served && len(s.sessions) == 0 && len(s.conns) == 0
		s.mu.Unlock()
		if idle {
			// The session was the last one registered and nobody is
			// connected: collect its heap now and return the freed pages to
			// the OS. A lifeguard whose steady state barely allocates triggers
			// no GC of its own, and what the finished session left behind
			// (a report-heavy session's replay buffers, say) would otherwise
			// stay resident through the next one; a plain GC frees it only to
			// the heap, which the scavenger hands back slowly. Here, unlike in
			// evict, no frame still reaches the session.
			debug.FreeOSMemory()
			s.m.idleGCs.Inc()
		}
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	// Writes toward the client go through the per-write deadline (slow-client
	// protection) and the server.write failpoint, both under the buffer so a
	// short write tears a frame mid-flush exactly like a real stall would.
	var cw io.Writer = conn
	if s.cfg.WriteTimeout > 0 {
		cw = &deadlineWriter{conn: conn, d: s.cfg.WriteTimeout}
	}
	bw := bufio.NewWriter(failpoint.Writer(failpoint.SiteServerWrite, cw))

	conn.SetReadDeadline(time.Now().Add(s.cfg.HelloTimeout))
	ft, payload, err := proto.ReadFrame(br)
	if err != nil || ft != proto.FrameHello {
		return // not even a Hello; nothing useful to answer
	}
	conn.SetReadDeadline(time.Time{})
	var h proto.Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		s.reject(bw, proto.Reject{Code: "bad-request", Reason: "malformed Hello: " + err.Error()})
		return
	}
	if h.Proto != proto.Version {
		s.reject(bw, proto.Reject{Code: "version",
			Reason: fmt.Sprintf("protocol %d not supported (want %d)", h.Proto, proto.Version)})
		return
	}

	var sess *session
	var rej *proto.Reject
	if h.Resume != "" {
		sess, rej = s.reattach(h)
		if rej == nil {
			s.m.resumed.Inc()
			sess.flight.Record(obs.FlightNote, -1, 0, 0, "resumed")
			s.log.Info("session resumed", "session", sess.shortID, "trace", sess.traceID,
				"next_epoch", sess.inc.NextEpoch(), "remote", conn.RemoteAddr().String())
		}
	} else {
		sess, rej = s.admit(h)
		if rej == nil {
			s.m.accepted.Inc()
			sess.flight.Record(obs.FlightNote, -1, 0, 0, "accepted")
			s.log.Info("session accepted", "session", sess.shortID, "trace", sess.traceID,
				"lifeguard", h.Lifeguard, "threads", h.NumThreads,
				"remote", conn.RemoteAddr().String())
		}
	}
	if rej != nil {
		s.log.Warn("hello rejected", "code", rej.Code, "reason", rej.Reason,
			"remote", conn.RemoteAddr().String())
		s.reject(bw, *rej)
		return
	}
	served = true
	s.serveSession(conn, br, bw, sess, h.AckedEpoch)
	if sess.aborted {
		s.lingerClose(conn)
	}
}

// lingerClose makes a terminal Error frame survive the close. The client
// streams ahead of its Acks, so its next Epoch frames usually sit unread in
// the receive buffer when the session aborts; closing over them makes the
// kernel answer with RST, which fails the client's send and discards the
// Error frame before its reader sees it — the client then resumes an evicted
// id and reports unknown-session instead of the real reason. So: half-close
// the write side (the client reads Error, then EOF) and discard inbound bytes
// until the client hangs up, bounded by the write timeout.
func (s *Server) lingerClose(conn net.Conn) {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	}
	d := s.cfg.WriteTimeout
	if d <= 0 {
		d = s.cfg.HelloTimeout
	}
	conn.SetReadDeadline(time.Now().Add(d))
	io.Copy(io.Discard, conn)
}

// reject answers a refused Hello.
func (s *Server) reject(bw *bufio.Writer, rej proto.Reject) {
	s.m.rejected.Inc()
	if err := proto.WriteJSON(bw, proto.FrameReject, rej); err == nil {
		bw.Flush()
	}
}

// sessionError aborts the session with a typed error frame. The error log
// line carries the flight-recorder tail, so the post-mortem — which epochs
// the session was on and how they were pacing — is in the log even if
// nobody queried /debug/flight before the eviction dropped the ring.
func (s *Server) sessionError(bw *bufio.Writer, sess *session, code, reason string) {
	sess.flight.Record(obs.FlightError, -1, 0, 0, code+": "+reason)
	s.log.Error("session aborted", "session", sess.shortID, "trace", sess.traceID,
		"code", code, "reason", reason, "flight", sess.flight.Tail(8))
	if err := proto.WriteJSON(bw, proto.FrameError, proto.ErrorMsg{Code: code, Reason: reason}); err == nil {
		sess.aborted = bw.Flush() == nil
	}
	s.evict(sess, false)
}

// deadlineWriter arms a write deadline before every Write so a client that
// stops reading cannot wedge its handler on a full TCP buffer: the write
// fails with os.ErrDeadlineExceeded and the session is disconnected.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(w.d))
	return w.conn.Write(p)
}

// dropSlow handles a failed write toward the client. A tripped write
// deadline is a slow client, not a dead one — progressive disconnect: the
// first strike detaches (the checkpoint survives; a recovered client
// resumes), a repeat offender is evicted. Other write failures are ordinary
// connection loss and detach as before.
func (s *Server) dropSlow(sess *session, err error) {
	if err == nil || !errors.Is(err, os.ErrDeadlineExceeded) {
		s.detach(sess)
		return
	}
	s.m.writeTimeouts.Inc()
	sess.slowStrikes++
	sess.flight.Record(obs.FlightError, -1, 0, 0,
		fmt.Sprintf("write deadline exceeded (strike %d)", sess.slowStrikes))
	s.log.Warn("slow client", "session", sess.shortID, "trace", sess.traceID,
		"strikes", sess.slowStrikes, "write_timeout", s.cfg.WriteTimeout.String())
	if sess.slowStrikes >= 2 {
		s.log.Error("slow client evicted", "session", sess.shortID, "trace", sess.traceID,
			"strikes", sess.slowStrikes, "flight", sess.flight.Tail(8))
		s.evict(sess, false)
		return
	}
	s.detach(sess)
}

// noteMemUsage applies the budgets to the session's latest memory estimate
// (refreshed by every step). It returns a non-empty abort reason when the
// session alone blew its budget, and shed=true when the global budget is
// exhausted and this session should be detached to stop the inflow (only
// ever when a sibling is attached — the last session always gets to finish).
func (s *Server) noteMemUsage(sess *session) (abort string, shed bool) {
	if est := sess.memEst.Load(); s.cfg.SessionMemBudget > 0 && est > s.cfg.SessionMemBudget {
		return fmt.Sprintf("session holds ~%d bytes, budget %d", est, s.cfg.SessionMemBudget), false
	}
	if s.cfg.MemBudget > 0 && s.memTotal.Load() > s.cfg.MemBudget {
		s.mu.Lock()
		shed = s.anyAttachedLocked(sess)
		s.mu.Unlock()
	}
	return "", shed
}

// serveSession drives one attached session until the trace completes or the
// connection drops. acked is the client's last received Ack (−1 for none):
// report frames after it are replayed before new input is consumed.
func (s *Server) serveSession(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, sess *session, acked int) {
	welcome := proto.Welcome{Session: sess.id, NextEpoch: sess.inc.NextEpoch(),
		Finished: sess.finished, Shards: 1,
		Durable: sess.durable(), Recovered: sess.recovered}
	if err := proto.WriteJSON(bw, proto.FrameWelcome, welcome); err != nil {
		s.dropSlow(sess, err)
		return
	}
	// Reports frames encode into one buffer reused for the whole attach: a
	// firing lifeguard sends one every tick. A tick without reports sends
	// none.
	var repBuf []byte
	writeReports := func(r proto.Reports) error {
		if len(r.Reports) == 0 {
			return nil
		}
		repBuf = r.AppendJSON(repBuf[:0])
		if err := proto.WriteFrame(bw, proto.FrameReports, repBuf); err != nil {
			return err
		}
		sess.sm.reportsOut.Add(int64(len(r.Reports)))
		return nil
	}
	for _, rep := range sess.replayAfter(acked) {
		if err := writeReports(rep); err != nil {
			s.dropSlow(sess, err)
			return
		}
	}
	if sess.finished {
		s.finishSession(br, bw, sess)
		return
	}
	if err := bw.Flush(); err != nil {
		s.dropSlow(sess, err)
		return
	}

	// The frame loop reuses one payload buffer (FrameReader) and recycled
	// epoch rows (the session's RowPool), so a healthy session's steady
	// state reads, decodes and analyzes without allocating: the scoped
	// counters, latency histograms and flight recorder the step writes are
	// preallocated state. Payloads are fully consumed before the next Read,
	// as FrameReader requires.
	fr := proto.NewFrameReader(br)
	// Acks written but not yet flushed (see the flush rule after the Ack).
	// Every way out of the loop flushes them, so an Ack the session has
	// earned still reaches the client when it stops, detaches or aborts:
	// the exits that write an Error or Done frame flush them ahead of it,
	// and the three that only detach call flushAcks. End flushes them
	// before its trailing tick waits for a slot.
	acksPending := false
	flushAcks := func() error {
		if !acksPending {
			return nil
		}
		acksPending = false
		sess.sm.ackFlushes.Inc()
		return bw.Flush()
	}
	// A tick that finds every analysis slot taken delivers the Acks already
	// written before it waits on other sessions for one. A failed flush must
	// not end the session there, between decode and feed (the row builder
	// has stamped the epoch already): the writer keeps the error, and the
	// tick's Ack write drops the session once the epoch is fed.
	flushBeforeWait := func() { flushAcks() }
	for {
		// server.read: a delay policy stalls this read (slow network), an
		// error policy drops the connection as a mid-stream network fault.
		if err := failpoint.Inject(failpoint.SiteServerRead); err != nil {
			flushAcks()
			s.detach(sess)
			return
		}
		ft, payload, err := fr.Read()
		if err != nil {
			flushAcks()
			s.detach(sess)
			return
		}
		// Admission: a frame over a quota is refused before it is decoded.
		sess.charge(payload)
		if s.cfg.MaxSessionBytes > 0 && sess.bytesIn > s.cfg.MaxSessionBytes {
			s.sessionError(bw, sess, "quota-bytes",
				fmt.Sprintf("session exceeded %d-byte quota", s.cfg.MaxSessionBytes))
			return
		}

		switch ft {
		case proto.FrameEpoch:
			if s.cfg.MaxSessionEpochs > 0 && sess.epochs >= s.cfg.MaxSessionEpochs {
				s.sessionError(bw, sess, "quota-epochs",
					fmt.Sprintf("session exceeded %d-epoch quota", s.cfg.MaxSessionEpochs))
				return
			}
			num, reps, v := s.applyEpoch(sess, payload, flushBeforeWait)
			if v != nil {
				s.sessionError(bw, sess, v.Code, v.Reason)
				return
			}
			if err := writeReports(proto.Reports{Epoch: num, Reports: reps}); err != nil {
				s.dropSlow(sess, err)
				return
			}
			if err := proto.WriteFrame(bw, proto.FrameAck, proto.EncodeAck(num)); err != nil {
				s.dropSlow(sess, err)
				return
			}
			// Flush rule: when the next frame already sits whole in the read
			// buffer, the next Read cannot block, so this Ack rides out with
			// the next tick's instead of costing a write of its own. An Ack
			// therefore waits at most for the analysis of the frames already
			// buffered (one bufio.Reader, 4 KiB): a frame still arriving, or
			// one too large to fit, flushes at once, a tick that must wait
			// for an analysis slot flushes before it waits, and a durable
			// session flushes every Ack, so none waits on a WAL sync
			// (DESIGN.md §10).
			acksPending = true
			if sess.durable() || !fr.Ready() {
				if err := flushAcks(); err != nil {
					s.dropSlow(sess, err)
					return
				}
			}
			// Budget check only after the Ack left: overload never aborts an
			// in-flight epoch, it sheds by detaching at a checkpoint the
			// client can resume from (and gets Reject(overloaded) + backoff
			// until pressure drops).
			if abort, shed := s.noteMemUsage(sess); abort != "" {
				s.sessionError(bw, sess, "quota-mem", abort)
				return
			} else if shed {
				if err := flushAcks(); err != nil {
					s.dropSlow(sess, err)
					return
				}
				s.m.memShed.Inc()
				sess.flight.Record(obs.FlightNote, num, 0, 0, "shed: memory budget")
				s.log.Warn("session shed under memory pressure", "session", sess.shortID,
					"trace", sess.traceID, "estimate", s.memTotal.Load(), "budget", s.cfg.MemBudget)
				s.detach(sess)
				return
			}

		case proto.FrameEnd:
			if err := flushAcks(); err != nil {
				s.dropSlow(sess, err)
				return
			}
			reps, v := s.applyEnd(sess)
			if v != nil {
				s.sessionError(bw, sess, v.Code, v.Reason)
				return
			}
			if err := writeReports(proto.Reports{Epoch: sess.done.Epochs, Reports: reps}); err != nil {
				s.dropSlow(sess, err)
				return
			}
			s.finishSession(br, bw, sess)
			return

		default:
			s.sessionError(bw, sess, "protocol", fmt.Sprintf("unexpected %v frame", ft))
			return
		}
	}
}

// finishSession delivers Done and holds the session until the client sends
// its explicit goodbye (an End frame after Done). Only that frame proves
// the result landed: a bare EOF is indistinguishable from a middlebox
// dropping the connection just after Done was written, so anything short of
// the goodbye leaves the finished session resumable for the grace period.
func (s *Server) finishSession(br *bufio.Reader, bw *bufio.Writer, sess *session) {
	if err := proto.WriteJSON(bw, proto.FrameDone, sess.done); err != nil {
		s.dropSlow(sess, err)
		return
	}
	if err := bw.Flush(); err != nil {
		s.dropSlow(sess, err)
		return
	}
	ft, _, err := proto.ReadFrame(br)
	if err == nil && ft == proto.FrameEnd {
		s.evict(sess, true)
		return
	}
	if err != nil {
		s.detach(sess)
		return
	}
	s.sessionError(bw, sess, "protocol", fmt.Sprintf("unexpected %v frame after Done", ft))
}
