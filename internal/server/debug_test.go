package server_test

// End-to-end coverage for the session observability plane (DESIGN.md §13):
// the /healthz, /sessions and /debug/flight endpoints during live sessions,
// abort log lines carrying the flight-recorder tail, the unreachable-server
// client UX, and cross-process trace correlation through the shared trace ID.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/server"
	"butterfly/internal/trace"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sendEpochFrame writes one epoch frame (possibly with empty rows) and reads
// frames until its Ack arrives, returning any Reports seen on the way.
func sendEpochFrame(t *testing.T, conn net.Conn, br *bufio.Reader, num, nthreads int) {
	t.Helper()
	row := make([][]trace.Event, nthreads)
	payload, err := proto.EncodeEpoch(num, row)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := proto.WriteFrame(bw, proto.FrameEpoch, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		ft, ackPayload, err := proto.ReadFrame(br)
		if err != nil {
			t.Fatalf("waiting for Ack %d: %v", num, err)
		}
		switch ft {
		case proto.FrameAck:
			got, err := proto.DecodeAck(ackPayload)
			if err != nil || got != num {
				t.Fatalf("Ack = %d (err %v), want %d", got, err, num)
			}
			return
		case proto.FrameReports:
			continue
		case proto.FrameError:
			t.Fatalf("session errored while awaiting Ack %d: %s", num, ackPayload)
		default:
			t.Fatalf("unexpected %v frame while awaiting Ack %d", ft, num)
		}
	}
}

type healthAnswer struct {
	Status           string  `json:"status"`
	UptimeS          float64 `json:"uptime_s"`
	SessionsActive   int     `json:"sessions_active"`
	SessionsDetached int     `json:"sessions_detached"`
}

type sessionsAnswer struct {
	Sessions []struct {
		ID           string `json:"id"`
		TraceID      string `json:"trace_id"`
		Lifeguard    string `json:"lifeguard"`
		Threads      int    `json:"threads"`
		Attached     bool   `json:"attached"`
		Epochs       int64  `json:"epochs"`
		BytesIn      int64  `json:"bytes_in"`
		FramesIn     int64  `json:"frames_in"`
		AckFlushes   int64  `json:"ack_flushes"`
		FlightEvents int    `json:"flight_events"`
		FeedNs       struct {
			P50 int64 `json:"p50"`
			Max int64 `json:"max"`
		} `json:"feed_ns"`
	} `json:"sessions"`
}

type flightAnswer struct {
	Sessions []struct {
		ID      string            `json:"id"`
		TraceID string            `json:"trace_id"`
		Total   uint64            `json:"total"`
		Events  []obs.FlightEvent `json:"events"`
	} `json:"sessions"`
}

// TestIntrospectionEndpoints drives a raw session epoch by epoch and watches
// it through every introspection surface: /healthz counts it, /sessions
// reports its live counters, /debug/flight returns its ring, /metrics
// carries its scoped series — and all of it is gone after the goodbye.
func TestIntrospectionEndpoints(t *testing.T) {
	reg := obs.New()
	var logBuf syncBuffer
	log, err := obs.NewLogger(&logBuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, server.Config{Obs: reg, Log: log, FlightDepth: 16})
	ds, err := obs.StartDebugServer("localhost:0", reg, s.DebugEndpoints()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	traceID := "feedfacecafe0123"
	h := validHello()
	h.TraceID = traceID
	conn, ft, payload := rawHello(t, s.Addr(), h)
	defer conn.Close()
	if ft != proto.FrameWelcome {
		t.Fatalf("got %v frame, want Welcome (%s)", ft, payload)
	}
	var w proto.Welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		t.Fatal(err)
	}
	shortID := w.Session
	if len(shortID) > 12 {
		shortID = shortID[:12]
	}
	br := bufio.NewReader(conn)
	sendEpochFrame(t, conn, br, 0, h.NumThreads)
	sendEpochFrame(t, conn, br, 1, h.NumThreads)

	var health healthAnswer
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if health.Status != "ok" || health.SessionsActive != 1 || health.SessionsDetached != 0 {
		t.Errorf("/healthz = %+v, want ok with 1 active", health)
	}

	var sessions sessionsAnswer
	getJSON(t, base+"/sessions", &sessions)
	if len(sessions.Sessions) != 1 {
		t.Fatalf("/sessions rows = %d, want 1", len(sessions.Sessions))
	}
	row := sessions.Sessions[0]
	if row.ID != shortID || row.TraceID != traceID || row.Lifeguard != "addrcheck" ||
		row.Threads != h.NumThreads || !row.Attached {
		t.Errorf("/sessions row = %+v", row)
	}
	if row.Epochs != 2 || row.FramesIn != 2 || row.BytesIn <= 0 {
		t.Errorf("/sessions counters: epochs=%d frames_in=%d bytes_in=%d, want 2/2/>0",
			row.Epochs, row.FramesIn, row.BytesIn)
	}
	if row.AckFlushes != 2 { // lock-step: nothing is buffered behind either frame
		t.Errorf("/sessions ack_flushes = %d, want 2", row.AckFlushes)
	}
	if row.FeedNs.Max <= 0 {
		t.Errorf("feed_ns.max = %d, want > 0 after two fed epochs", row.FeedNs.Max)
	}
	if row.FlightEvents < 3 { // accepted note + 2 epoch ticks
		t.Errorf("flight_events = %d, want ≥ 3", row.FlightEvents)
	}

	var flight flightAnswer
	if code := getJSON(t, base+"/debug/flight?session="+shortID[:8], &flight); code != http.StatusOK {
		t.Fatalf("/debug/flight = %d", code)
	}
	if len(flight.Sessions) != 1 || flight.Sessions[0].ID != shortID {
		t.Fatalf("/debug/flight dumps = %+v", flight.Sessions)
	}
	var sawAccepted, sawEpoch1 bool
	for _, ev := range flight.Sessions[0].Events {
		if ev.Kind == obs.FlightNote && ev.Detail == "accepted" {
			sawAccepted = true
		}
		if ev.Kind == obs.FlightEpoch && ev.Epoch == 1 {
			sawEpoch1 = true
		}
	}
	if !sawAccepted || !sawEpoch1 {
		t.Errorf("flight ring lacks accepted/epoch-1 events: %+v", flight.Sessions[0].Events)
	}
	if code := getJSON(t, base+"/debug/flight?session=zzzzzz", nil); code != http.StatusNotFound {
		t.Errorf("/debug/flight with bogus filter = %d, want 404", code)
	}

	// The scoped series are on /metrics next to the globals.
	metrics := getText(t, base+"/metrics")
	scoped := "butterfly_session_" + shortID + "_driver_epochs 2"
	if !strings.Contains(metrics, scoped) {
		t.Errorf("/metrics lacks per-session series %q", scoped)
	}
	if !strings.Contains(metrics, "\nbutterfly_server_bytes_in ") {
		t.Errorf("/metrics lacks the chained global server.bytes_in")
	}
	// Two empty 2-thread rows: both ticks ran inline, each Ack had a flush.
	for _, line := range []string{
		"butterfly_session_" + shortID + "_server_ack_flushes 2",
		"\nbutterfly_driver_ticks_inline 2\n",
		"\nbutterfly_driver_ticks_fanout 0\n",
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}

	// SIGQUIT-style dump while live.
	var dump bytes.Buffer
	s.DumpFlights(&dump)
	if !strings.Contains(dump.String(), "1 sessions") ||
		!strings.Contains(dump.String(), "session "+shortID+" trace="+traceID) {
		t.Errorf("DumpFlights = %q", dump.String())
	}

	// Finish: End → Done → goodbye End; the session must vanish everywhere.
	bw := bufio.NewWriter(conn)
	if err := proto.WriteFrame(bw, proto.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		ft, _, err := proto.ReadFrame(br)
		if err != nil {
			t.Fatalf("waiting for Done: %v", err)
		}
		if ft == proto.FrameDone {
			break
		}
	}
	if err := proto.WriteFrame(bw, proto.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		var health healthAnswer
		getJSON(t, base+"/healthz", &health)
		if health.SessionsActive == 0 && health.SessionsDetached == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never evicted: %+v", health)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if metrics := getText(t, base+"/metrics"); strings.Contains(metrics, "butterfly_session_"+shortID) {
		t.Errorf("evicted session still on /metrics")
	}
	logs := logBuf.String()
	for _, want := range []string{"session accepted", "session completed", "session=" + shortID, "trace=" + traceID} {
		if !strings.Contains(logs, want) {
			t.Errorf("server log lacks %q:\n%s", want, logs)
		}
	}
}

// TestAbortLogCarriesFlightTail kills a session on its epoch quota and
// requires the error log line to name the last epochs from the flight ring.
func TestAbortLogCarriesFlightTail(t *testing.T) {
	var logBuf syncBuffer
	log, err := obs.NewLogger(&logBuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, server.Config{MaxSessionEpochs: 2, Log: log})

	conn, ft, _ := rawHello(t, s.Addr(), validHello())
	defer conn.Close()
	if ft != proto.FrameWelcome {
		t.Fatalf("got %v frame, want Welcome", ft)
	}
	br := bufio.NewReader(conn)
	sendEpochFrame(t, conn, br, 0, 2)
	sendEpochFrame(t, conn, br, 1, 2)

	// Epoch 2 breaches the quota: expect a typed error frame, then the log.
	row := make([][]trace.Event, 2)
	payload, err := proto.EncodeEpoch(2, row)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := proto.WriteFrame(bw, proto.FrameEpoch, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	ft, errPayload, err := proto.ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if ft != proto.FrameError {
		t.Fatalf("got %v frame, want Error", ft)
	}
	var em proto.ErrorMsg
	if err := json.Unmarshal(errPayload, &em); err != nil {
		t.Fatal(err)
	}
	if em.Code != "quota-epochs" {
		t.Fatalf("error code = %q, want quota-epochs", em.Code)
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "session aborted") || !strings.Contains(logs, "quota-epochs") {
		t.Fatalf("abort log missing:\n%s", logs)
	}
	// The flight tail names the epochs the session was processing.
	if !strings.Contains(logs, "epoch 0") || !strings.Contains(logs, "epoch 1") {
		t.Errorf("abort log lacks the flight tail's last epochs:\n%s", logs)
	}
}

// TestClientUnreachable: a server that never answers yields ErrUnreachable
// (with a plain-language message), not a raw dial error — both when nothing
// listens and when a chaos proxy kills every connection mid-handshake.
func TestClientUnreachable(t *testing.T) {
	g := testTrace(t, 5, 2)
	opts := client.Options{
		MaxRetries:  3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	}

	t.Run("no-listener", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		_, err = client.Run(addr, opts, epoch.NewGridRows(g))
		if !errors.Is(err, client.ErrUnreachable) {
			t.Fatalf("err = %v, want ErrUnreachable", err)
		}
		if !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), addr) {
			t.Errorf("message should name the condition and address: %v", err)
		}
	})

	t.Run("chaos-mid-handshake", func(t *testing.T) {
		s := startServer(t, server.Config{})
		// Byte budgets 1, 2, 4, 8 — no connection survives the Hello, so the
		// client is never welcomed and must classify the run as unreachable.
		proxy := newChaosProxy(t, s.Addr(), 1)
		_, err := client.Run(proxy.addr(), opts, epoch.NewGridRows(g))
		if !errors.Is(err, client.ErrUnreachable) {
			t.Fatalf("err = %v (after %d conns), want ErrUnreachable", err, proxy.conns())
		}
	})

	t.Run("welcomed-then-dead-is-not-unreachable", func(t *testing.T) {
		s := startServer(t, server.Config{DetachGrace: time.Minute})
		// Budget 4096 lets the handshake through once; subsequent cuts are a
		// flaky network, not an unreachable service.
		proxy := newChaosProxy(t, s.Addr(), 4096)
		bigOpts := opts
		bigOpts.MaxRetries = 2
		_, err := client.Run(proxy.addr(), bigOpts, epoch.NewGridRows(benchGridT(t, 3)))
		if err == nil {
			return // finished within the budgets — fine, nothing to classify
		}
		if errors.Is(err, client.ErrUnreachable) {
			t.Fatalf("welcomed session misclassified as unreachable: %v", err)
		}
	})
}

// benchGridT adapts benchGrid's dense workload for tests: big enough that a
// chaos proxy with a small budget cannot finish it in one connection.
func benchGridT(t *testing.T, seed int64) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(4)
	for th := 0; th < 4; th++ {
		b.T(trace.ThreadID(th))
		for i := 0; i < 2048; i++ {
			b.Read(0x100+uint64(i%64)*8, 4)
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTraceCorrelation runs a remote session with tracing on both sides and
// proves the two Chrome traces carry the same trace ID and merge into one
// coherent timeline.
func TestTraceCorrelation(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, server.Config{TraceDir: dir})

	id := obs.NewTraceID()
	rec := obs.NewTraceRecorder()
	g := testTrace(t, 21, 3)
	if _, err := client.Run(s.Addr(), client.Options{
		Lifeguard: "memcheck",
		TraceID:   id,
		Trace:     rec,
	}, epoch.NewGridRows(g)); err != nil {
		t.Fatal(err)
	}

	var clientTrace bytes.Buffer
	if err := rec.WriteJSON(&clientTrace); err != nil {
		t.Fatal(err)
	}

	// The server writes its file at eviction, which trails the client's
	// return by the goodbye round-trip.
	var serverFile string
	deadline := time.Now().Add(5 * time.Second)
	for serverFile == "" {
		matches, err := filepath.Glob(filepath.Join(dir, "session-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) > 0 {
			serverFile = matches[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never wrote its session trace")
		}
		time.Sleep(5 * time.Millisecond)
	}
	serverTrace, err := os.ReadFile(serverFile)
	if err != nil {
		t.Fatal(err)
	}

	type traceFile struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Name string  `json:"name"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	var ct, st traceFile
	if err := json.Unmarshal(clientTrace.Bytes(), &ct); err != nil {
		t.Fatalf("client trace invalid: %v", err)
	}
	if err := json.Unmarshal(serverTrace, &st); err != nil {
		t.Fatalf("server trace invalid: %v", err)
	}
	if ct.OtherData["trace_id"] != id || st.OtherData["trace_id"] != id {
		t.Fatalf("trace IDs diverge: client %q server %q want %q",
			ct.OtherData["trace_id"], st.OtherData["trace_id"], id)
	}
	var clientSpans, serverSpans int
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			clientSpans++
		}
	}
	for _, ev := range st.TraceEvents {
		if ev.Ph == "X" {
			serverSpans++
		}
	}
	if clientSpans == 0 || serverSpans == 0 {
		t.Fatalf("spans: client %d server %d, want both > 0", clientSpans, serverSpans)
	}

	var merged bytes.Buffer
	if err := obs.MergeTraces(&merged, &clientTrace, bytes.NewReader(serverTrace)); err != nil {
		t.Fatalf("MergeTraces: %v", err)
	}
	var mt traceFile
	if err := json.Unmarshal(merged.Bytes(), &mt); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if mt.OtherData["trace_id"] != id {
		t.Errorf("merged otherData = %v", mt.OtherData)
	}
	pids := map[int]bool{}
	var spans int
	for _, ev := range mt.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
			spans++
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("merged trace lost a process: pids %v", pids)
	}
	if spans != clientSpans+serverSpans {
		t.Errorf("merged spans = %d, want %d", spans, clientSpans+serverSpans)
	}
}

// TestHealthzReportsDraining: /healthz flips to "draining" during Shutdown.
func TestHealthzReportsDraining(t *testing.T) {
	reg := obs.New()
	s, err := server.Listen("127.0.0.1:0", server.Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	ds, err := obs.StartDebugServer("localhost:0", reg, s.DebugEndpoints()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	base := "http://" + ds.Addr()

	// An idle raw session holds the drain open long enough to observe it.
	conn, ft, _ := rawHello(t, s.Addr(), validHello())
	defer conn.Close()
	if ft != proto.FrameWelcome {
		t.Fatalf("got %v frame, want Welcome", ft)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(ctx) }()

	deadline := time.Now().Add(2 * time.Second)
	for {
		var health healthAnswer
		getJSON(t, base+"/healthz", &health)
		if health.Status == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never reported draining: %+v", health)
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-shutdownErr
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v", err)
	}
}
