package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"butterfly/internal/obs"
)

// Live introspection (DESIGN.md §13): butterflyd mounts these endpoints on
// its -debug-addr server next to /metrics and pprof. Everything here reads
// only immutable session fields, Server.mu-guarded registry state, or the
// session's scoped atomics — never the plain fields owned by the attached
// connection goroutine — so polling /sessions during a 16-session soak is
// race-free by construction.

// sessionRow is one /sessions entry.
type sessionRow struct {
	ID        string  `json:"id"` // short id; also the metric-scope label
	TraceID   string  `json:"trace_id"`
	Lifeguard string  `json:"lifeguard"`
	Threads   int     `json:"threads"`
	Serial    bool    `json:"serial,omitempty"`
	Attached  bool    `json:"attached"`
	AgeS      float64 `json:"age_s"`

	// Durability (DESIGN.md §14): Durable = acks persisted to the WAL;
	// Degraded = dropped to in-memory mode after a disk error; Recovered =
	// rebuilt from the log after a server restart.
	Durable   bool `json:"durable,omitempty"`
	Degraded  bool `json:"degraded,omitempty"`
	Recovered bool `json:"recovered,omitempty"`

	// Quarantined flips when the session's lifeguard panicked and the
	// session was isolated (DESIGN.md §15); MemBytes is the session's
	// latest memory estimate counted against the budgets.
	Quarantined bool  `json:"quarantined,omitempty"`
	MemBytes    int64 `json:"mem_bytes"`

	// Progress and wire totals, from the session's scoped counters.
	Epochs       int64 `json:"epochs"`
	WindowEvents int64 `json:"window_events"`
	BytesIn      int64 `json:"bytes_in"`
	FramesIn     int64 `json:"frames_in"`
	AckFlushes   int64 `json:"ack_flushes"`
	ReportsOut   int64 `json:"reports_out"`

	// Quota usage (limits 0 = unlimited).
	QuotaBytesLimit  int64 `json:"quota_bytes_limit,omitempty"`
	QuotaEpochsLimit int64 `json:"quota_epochs_limit,omitempty"`

	// Per-epoch service latency and worker-slot (backpressure) wait.
	FeedNs        latencySummary `json:"feed_ns"`
	AcquireWaitNs latencySummary `json:"acquire_wait_ns"`

	FlightEvents int `json:"flight_events"`
}

// latencySummary reports a histogram as quantile upper bounds (power-of-two
// buckets: within 2× of the true quantile) plus the exact max.
type latencySummary struct {
	P50 int64 `json:"p50"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

func summarize(h *obs.Histogram) latencySummary {
	qs := h.Quantiles(0.50, 0.95, 0.99)
	return latencySummary{P50: qs[0], P95: qs[1], P99: qs[2], Max: h.Max()}
}

// snapshotSessions copies the live session pointers out of the registry.
func (s *Server) snapshotSessions() ([]*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out, s.draining
}

func (s *Server) sessionRow(sess *session, attached bool) sessionRow {
	return sessionRow{
		ID:               sess.shortID,
		TraceID:          sess.traceID,
		Lifeguard:        sess.hello.Lifeguard,
		Threads:          sess.hello.NumThreads,
		Serial:           sess.hello.Serial,
		Attached:         attached,
		AgeS:             time.Since(sess.created).Seconds(),
		Durable:          sess.durable(),
		Degraded:         sess.degraded.Load(),
		Recovered:        sess.recovered,
		Quarantined:      sess.quarantined.Load(),
		MemBytes:         sess.memEst.Load(),
		Epochs:           sess.sm.epochs.Value(),
		WindowEvents:     sess.sm.windowEvents.Value(),
		BytesIn:          sess.sm.bytesIn.Value(),
		FramesIn:         sess.sm.framesIn.Value(),
		AckFlushes:       sess.sm.ackFlushes.Value(),
		ReportsOut:       sess.sm.reportsOut.Value(),
		QuotaBytesLimit:  s.cfg.MaxSessionBytes,
		QuotaEpochsLimit: s.cfg.MaxSessionEpochs,
		FeedNs:           summarize(sess.sm.feedNs),
		AcquireWaitNs:    summarize(sess.sm.waitNs),
		FlightEvents:     sess.flight.Len(),
	}
}

// DebugEndpoints returns the server's introspection endpoints for
// obs.StartDebugServer: /healthz (liveness + drain state), /sessions (live
// per-session JSON) and /debug/flight (per-session flight-recorder rings,
// filterable with ?session=<id prefix>).
func (s *Server) DebugEndpoints() []obs.Endpoint {
	return []obs.Endpoint{
		{Pattern: "/healthz", Handler: http.HandlerFunc(s.handleHealthz)},
		{Pattern: "/sessions", Handler: http.HandlerFunc(s.handleSessions)},
		{Pattern: "/debug/flight", Handler: http.HandlerFunc(s.handleFlight)},
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	var active, detached int
	for _, sess := range s.sessions {
		if sess.attached {
			active++
		} else {
			detached++
		}
	}
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // best-effort health answer
		"status":            status,
		"uptime_s":          time.Since(s.started).Seconds(),
		"sessions_active":   active,
		"sessions_detached": detached,
	})
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	// Attachment flags are registry state: read them in the same hold as
	// the pointer snapshot so each row is self-consistent.
	s.mu.Lock()
	type entry struct {
		sess     *session
		attached bool
	}
	entries := make([]entry, 0, len(s.sessions))
	for _, sess := range s.sessions {
		entries = append(entries, entry{sess, sess.attached})
	}
	s.mu.Unlock()

	rows := make([]sessionRow, 0, len(entries))
	for _, e := range entries {
		rows = append(rows, s.sessionRow(e.sess, e.attached))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"sessions": rows}) //nolint:errcheck
}

// flightDump is one session's ring in the /debug/flight answer.
type flightDump struct {
	ID      string            `json:"id"`
	TraceID string            `json:"trace_id"`
	Total   uint64            `json:"total"`
	Events  []obs.FlightEvent `json:"events"`
}

func (sess *session) dumpFlight() flightDump {
	events := sess.flight.Snapshot()
	if events == nil {
		events = []obs.FlightEvent{}
	}
	return flightDump{
		ID:      sess.shortID,
		TraceID: sess.traceID,
		Total:   sess.flight.Total(),
		Events:  events,
	}
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("session")
	sessions, _ := s.snapshotSessions()
	dumps := make([]flightDump, 0, len(sessions))
	for _, sess := range sessions {
		if prefix != "" && !strings.HasPrefix(sess.id, prefix) && !strings.HasPrefix(sess.shortID, prefix) {
			continue
		}
		dumps = append(dumps, sess.dumpFlight())
	}
	if prefix != "" && len(dumps) == 0 {
		http.Error(w, fmt.Sprintf("no session matches %q", prefix), http.StatusNotFound)
		return
	}
	sort.Slice(dumps, func(i, j int) bool { return dumps[i].ID < dumps[j].ID })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"sessions": dumps}) //nolint:errcheck
}

// DumpFlights writes every live session's flight-recorder ring to w — the
// SIGQUIT handler's post-mortem dump (butterflyd stays alive afterwards).
func (s *Server) DumpFlights(w io.Writer) {
	sessions, draining := s.snapshotSessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].shortID < sessions[j].shortID })
	fmt.Fprintf(w, "== butterflyd flight dump: %d sessions (draining=%v) ==\n", len(sessions), draining)
	for _, sess := range sessions {
		fmt.Fprintf(w, "-- session %s trace=%s lifeguard=%s --\n", sess.shortID, sess.traceID, sess.hello.Lifeguard)
		sess.flight.WriteJSON(w) //nolint:errcheck // diagnostic dump
	}
}
