// Package client is the butterflyd client: it streams a trace's epoch rows
// to a remote server, collects the lifeguard reports streamed back, and
// survives connection loss by resuming from the server's checkpoint.
//
// The client retains every epoch the server has not yet acknowledged.
// Ack(l) means tick l is folded into the server-side checkpoint (SOS plus
// the in-window epochs — DESIGN.md §10), so on reconnect the client
// re-sends only the unacknowledged suffix; the Welcome's NextEpoch tells it
// exactly where to restart, and the server replays any report frames that
// were lost in flight. Reports are deduplicated by tick, so the assembled
// result is byte-identical to an uninterrupted in-process Driver.RunStream
// over the same rows — the soak and kill-and-resume tests pin this down.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/failpoint"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/trace"
)

// ErrUnreachable marks a run that gave up without ever completing a
// handshake: no Welcome (or definitive Reject) arrived across every
// attempt, so butterflyd is down, unreachable, or not a butterflyd.
// Callers match it with errors.Is to distinguish "the service is not
// there" from a mid-stream failure.
var ErrUnreachable = errors.New("butterflyd unreachable")

// Options configures a remote run. The zero value is usable for a local
// addrcheck session.
type Options struct {
	// Lifeguard names the analysis ("addrcheck", "memcheck", "taintcheck",
	// "lockset"). Empty → "addrcheck".
	Lifeguard string
	// HeapBase and Relaxed are lifeguard options, as in cmd/butterfly-run.
	HeapBase uint64
	Relaxed  bool
	// Serial asks the server for the deterministic single-goroutine driver.
	Serial bool

	// MaxRetries bounds consecutive failed reconnect attempts (an attempt
	// that makes progress resets the count). 0 → 8.
	MaxRetries int
	// BaseBackoff/MaxBackoff shape the exponential reconnect backoff.
	// 0 → 100ms / 5s.
	BaseBackoff, MaxBackoff time.Duration
	// MaxInflight bounds epochs sent but not yet acknowledged (and thus
	// buffered for replay). 0 → 256.
	MaxInflight int
	// ReconnectMax bounds one outage's total wall-clock duration: once the
	// first failed attempt of an outage is ReconnectMax old with no progress
	// since, the run gives up even if MaxRetries would allow further
	// attempts — a permanently dead server fails the run in bounded time
	// (with ErrUnreachable when no handshake ever completed). 0 → no
	// wall-clock bound; MaxRetries alone decides.
	ReconnectMax time.Duration

	// Obs, when non-nil, receives client telemetry (dial attempts,
	// reconnects, bytes out, acks).
	Obs *obs.Registry

	// Log receives structured connection-lifecycle events. nil → discard.
	Log *slog.Logger

	// TraceID correlates this run across processes: it rides in the Hello,
	// and both sides stamp it into their logs and Chrome traces. Empty → a
	// fresh obs.NewTraceID().
	TraceID string

	// Trace, when non-nil, records client-side spans (dial/handshake and
	// per-epoch sends) for Chrome-trace export. Timestamps are wall-clock
	// anchored, so the file merges with the server's per-session trace
	// (obs.MergeTraces) into one timeline.
	Trace *obs.TraceRecorder

	// Dial overrides the transport (tests route through chaos proxies).
	// nil → net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
}

// Client-side trace rows.
const (
	traceTidConn = 0 // dial + handshake spans
	traceTidSend = 1 // per-epoch send spans
)

func (o Options) withDefaults() Options {
	if o.Lifeguard == "" {
		o.Lifeguard = "addrcheck"
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
	if o.Log == nil {
		o.Log = obs.DiscardLogger()
	}
	if o.TraceID == "" {
		o.TraceID = obs.NewTraceID()
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

// Run streams src's epoch rows to the butterflyd at addr and returns the
// assembled result. Result.FinalSOS is nil — lifeguard state lives only on
// the server; Reports, Epochs and Events match the in-process driver
// exactly. A zero-thread source completes locally without dialing.
func Run(addr string, opts Options, src core.BlockSource) (*core.Result, error) {
	opts = opts.withDefaults()
	T := src.NumThreads()
	if T == 0 {
		// Nothing to analyze; drain the source for its error like RunStream.
		for l := 0; ; l++ {
			if _, err := src.NextEpoch(); err == io.EOF {
				return &core.Result{}, nil
			} else if err != nil {
				return nil, fmt.Errorf("client: reading epoch %d: %w", l, err)
			}
		}
	}
	if opts.Trace != nil {
		opts.Trace.SetProcess(1, "butterfly-run → "+addr)
		opts.Trace.SetMeta("trace_id", opts.TraceID)
		opts.Trace.SetThreadName(traceTidConn, "connection")
		opts.Trace.SetThreadName(traceTidSend, "send")
	}
	r := &run{
		addr: addr,
		opts: opts,
		src:  src,
		T:    T,
		log:  opts.Log.With("trace", opts.TraceID),
		m: runMetrics{
			dials:      opts.Obs.Counter("client.dials"),
			reconnects: opts.Obs.Counter("client.reconnects"),
			bytesOut:   opts.Obs.Counter("client.bytes_out"),
			acks:       opts.Obs.Counter("client.acks"),
			replayed:   opts.Obs.Counter("client.epochs_replayed"),
		},
		reports: map[int][]core.Report{},
	}
	return r.run()
}

type runMetrics struct {
	dials, reconnects, bytesOut, acks, replayed *obs.Counter
}

// pendingEpoch is an epoch sent (or about to be sent) but not yet
// acknowledged: the replay unit.
type pendingEpoch struct {
	num     int
	payload []byte
}

// run is the state of one Run call across reconnects.
type run struct {
	addr string
	opts Options
	src  core.BlockSource
	T    int
	log  *slog.Logger
	m    runMetrics

	session string // resume token, set by the first Welcome
	// everWelcomed records that at least one handshake completed; a run that
	// gives up without it failed with ErrUnreachable, not mid-stream.
	everWelcomed bool

	mu      sync.Mutex
	cond    *sync.Cond // signaled by the reader on acks/errors
	pending []pendingEpoch
	// acked is the highest Ack frame actually read from the wire. It is the
	// resume position advertised in Hello.AckedEpoch, so it must NOT be
	// bumped by Welcome.NextEpoch: the server may have checkpointed epochs
	// whose Reports frames died with the connection, and claiming them as
	// acked would tell the server to skip replaying exactly those reports.
	acked   int
	reports map[int][]core.Report
	done    *proto.Done
	// connErr is a retryable transport failure; fatalErr ends the run.
	connErr  error
	fatalErr error

	srcDone bool // src returned io.EOF; End may be sent
	epochs  int  // epochs read from src so far
}

func (r *run) run() (*core.Result, error) {
	r.cond = sync.NewCond(&r.mu)
	r.acked = -1
	started := time.Now()
	failures := 0
	var outageStart time.Time // first failed attempt of the current outage
	for {
		progress, err := r.attempt()
		if r.fatal() != nil {
			return nil, r.fatal()
		}
		if r.finished() {
			return r.assemble()
		}
		if progress {
			failures = 0
			outageStart = time.Time{}
		} else {
			failures++
			if outageStart.IsZero() {
				outageStart = time.Now()
			}
		}
		if err != nil {
			r.log.Warn("connection attempt failed", "addr", r.addr,
				"consecutive_failures", failures, "err", err.Error())
		}
		outageTooLong := r.opts.ReconnectMax > 0 && !outageStart.IsZero() &&
			time.Since(outageStart) >= r.opts.ReconnectMax
		if failures > r.opts.MaxRetries || outageTooLong {
			if !r.everWelcomed {
				return nil, fmt.Errorf("client: %w: %s refused %d consecutive attempts over %v: %w",
					ErrUnreachable, r.addr, failures, time.Since(started).Round(time.Millisecond), err)
			}
			if outageTooLong {
				return nil, fmt.Errorf("client: giving up after %v without progress (%d failed attempts): %w",
					time.Since(outageStart).Round(time.Millisecond), failures, err)
			}
			return nil, fmt.Errorf("client: giving up after %d consecutive failed attempts: %w",
				failures, err)
		}
		backoff := r.opts.BaseBackoff
		if failures > 1 {
			backoff <<= failures - 1
			if backoff > r.opts.MaxBackoff || backoff <= 0 {
				backoff = r.opts.MaxBackoff
			}
		}
		time.Sleep(jittered(backoff))
		r.m.reconnects.Inc()
	}
}

func (r *run) fatal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatalErr
}

func (r *run) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done != nil
}

// attempt runs one connection: handshake, replay, stream, and waits for
// Done or a transport error. It reports whether the attempt made progress
// (new acks or a completed handshake doing useful work).
func (r *run) attempt() (progress bool, err error) {
	ackedBefore := r.ackedNow()

	dialStart := time.Now()
	if err := failpoint.Inject(failpoint.SiteClientDial); err != nil {
		return false, fmt.Errorf("client: dial %s: %w", r.addr, err)
	}
	conn, err := r.opts.Dial(r.addr)
	if err != nil {
		return false, fmt.Errorf("client: dial %s: %w", r.addr, err)
	}
	defer conn.Close()
	r.m.dials.Inc()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	hello := proto.Hello{
		Proto:      proto.Version,
		Lifeguard:  r.opts.Lifeguard,
		HeapBase:   r.opts.HeapBase,
		Relaxed:    r.opts.Relaxed,
		Serial:     r.opts.Serial,
		NumThreads: r.T,
		Resume:     r.session,
		AckedEpoch: ackedBefore,
		TraceID:    r.opts.TraceID,
	}
	if err := proto.WriteJSON(bw, proto.FrameHello, hello); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	welcome, err := r.readWelcome(br)
	if err != nil {
		return false, err
	}
	r.opts.Trace.Span(traceTidConn, "dial+handshake", dialStart, time.Since(dialStart), -1)
	resumed := r.everWelcomed
	r.everWelcomed = true
	r.session = welcome.Session
	if resumed {
		r.log.Info("session resumed", "session", shortSession(welcome.Session),
			"next_epoch", welcome.NextEpoch, "server_recovered", welcome.Recovered)
	} else {
		r.log.Info("session open", "session", shortSession(welcome.Session),
			"lifeguard", r.opts.Lifeguard, "threads", r.T,
			"durable", welcome.Durable)
	}

	// Epochs below NextEpoch are checkpointed server-side: drop them from
	// the replay buffer (but leave r.acked alone — see its doc comment).
	r.mu.Lock()
	for len(r.pending) > 0 && r.pending[0].num < welcome.NextEpoch {
		r.pending = r.pending[1:]
	}
	r.connErr = nil
	r.mu.Unlock()

	// The reader drains server frames (acks, reports, Done) concurrently
	// with the send loop; on error it closes the conn to unblock the sender.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.readLoop(br)
		if !r.finished() {
			conn.Close()
		}
	}()

	if !welcome.Finished {
		if err := r.sendLoop(bw); err != nil {
			r.setConnErr(err)
			conn.Close()
		}
	}
	wg.Wait()

	if r.finished() {
		// Goodbye: tell the server the result landed so it can drop the
		// checkpoint now. If this frame is lost the detach grace period
		// reclaims the session — a dropped connection must never be
		// mistaken for this acknowledgment.
		gw := bufio.NewWriter(conn)
		if proto.WriteFrame(gw, proto.FrameEnd, nil) == nil {
			gw.Flush()
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	progress = r.done != nil || r.acked > ackedBefore || welcome.NextEpoch-1 > ackedBefore
	return progress, r.connErr
}

func (r *run) ackedNow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

func (r *run) setConnErr(err error) {
	r.mu.Lock()
	if r.connErr == nil && err != nil {
		r.connErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *run) setFatal(err error) {
	r.mu.Lock()
	if r.fatalErr == nil && err != nil {
		r.fatalErr = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// readWelcome expects the Welcome (or Reject) answering a Hello.
func (r *run) readWelcome(br *bufio.Reader) (*proto.Welcome, error) {
	ft, payload, err := proto.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("client: reading handshake answer: %w", err)
	}
	switch ft {
	case proto.FrameWelcome:
		var w proto.Welcome
		if err := json.Unmarshal(payload, &w); err != nil {
			return nil, fmt.Errorf("client: malformed Welcome: %w", err)
		}
		return &w, nil
	case proto.FrameReject:
		var rej proto.Reject
		if err := json.Unmarshal(payload, &rej); err != nil {
			return nil, fmt.Errorf("client: malformed Reject: %w", err)
		}
		err = fmt.Errorf("client: server rejected session (%s): %s", rej.Code, rej.Reason)
		if rej.Code == "busy" || rej.Code == "overloaded" {
			// busy: a resume can outrun the server noticing the old
			// connection died; the next attempt will find the session
			// detached. overloaded: the memory budget shed this session —
			// the run loop's exponential backoff IS the client's side of
			// the load-shedding contract.
			return nil, err
		}
		// Other rejections are decisions, not failures: retrying would spam
		// a full or draining server, and a bad request stays bad.
		r.setFatal(err)
		return nil, err
	default:
		return nil, fmt.Errorf("client: unexpected %v frame in handshake", ft)
	}
}

// readLoop consumes server frames until Done or a transport error.
func (r *run) readLoop(br *bufio.Reader) {
	// One payload buffer serves every frame: each case below decodes (and
	// so copies out of) the payload before the next Read.
	fr := proto.NewFrameReader(br)
	for {
		if err := failpoint.Inject(failpoint.SiteClientRead); err != nil {
			r.setConnErr(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		ft, payload, err := fr.Read()
		if err != nil {
			r.setConnErr(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		switch ft {
		case proto.FrameAck:
			num, err := proto.DecodeAck(payload)
			if err != nil {
				r.setConnErr(err)
				return
			}
			r.m.acks.Inc()
			r.mu.Lock()
			if num > r.acked {
				r.acked = num
			}
			for len(r.pending) > 0 && r.pending[0].num <= num {
				r.pending = r.pending[1:]
			}
			r.cond.Broadcast()
			r.mu.Unlock()
		case proto.FrameReports:
			var rep proto.Reports
			if err := proto.DecodeReports(payload, &rep); err != nil {
				r.setConnErr(fmt.Errorf("client: malformed Reports frame: %w", err))
				return
			}
			r.mu.Lock()
			// Dedup by tick: a replay after resume may repeat frames whose
			// ack we received but the server couldn't know we had.
			if _, seen := r.reports[rep.Epoch]; !seen {
				r.reports[rep.Epoch] = rep.Reports
			}
			r.mu.Unlock()
		case proto.FrameDone:
			var d proto.Done
			if err := json.Unmarshal(payload, &d); err != nil {
				r.setConnErr(fmt.Errorf("client: malformed Done frame: %w", err))
				return
			}
			r.mu.Lock()
			r.done = &d
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		case proto.FrameError:
			var em proto.ErrorMsg
			if err := json.Unmarshal(payload, &em); err == nil {
				r.setFatal(fmt.Errorf("client: server aborted session (%s): %s", em.Code, em.Reason))
			} else {
				r.setFatal(fmt.Errorf("client: server aborted session: %w", err))
			}
			return
		default:
			r.setConnErr(fmt.Errorf("client: unexpected %v frame", ft))
			return
		}
	}
}

// sendLoop replays the unacknowledged suffix, then streams fresh epochs
// from the source, then End; it returns when everything is sent (the reader
// still runs) or on the first error.
func (r *run) sendLoop(bw *bufio.Writer) error {
	// Replay what the server hasn't checkpointed.
	r.mu.Lock()
	replay := append([]pendingEpoch(nil), r.pending...)
	r.mu.Unlock()
	for _, pe := range replay {
		if err := r.sendEpoch(bw, pe.num, pe.payload); err != nil {
			return err
		}
		r.m.replayed.Inc()
	}

	for {
		if err := r.stalled(); err != nil {
			return err
		}
		if r.srcDone {
			break
		}
		row, err := r.src.NextEpoch()
		if err == io.EOF {
			r.srcDone = true
			break
		}
		if err != nil {
			// The local source failing is not retryable.
			r.setFatal(fmt.Errorf("client: reading epoch %d: %w", r.epochs, err))
			return nil
		}
		payload, err := encodeRow(r.epochs, row, r.T)
		if err != nil {
			r.setFatal(err)
			return nil
		}
		r.mu.Lock()
		r.pending = append(r.pending, pendingEpoch{num: r.epochs, payload: payload})
		r.mu.Unlock()
		r.epochs++
		if err := r.sendEpoch(bw, r.epochs-1, payload); err != nil {
			return err
		}
	}
	if err := proto.WriteFrame(bw, proto.FrameEnd, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// stalled blocks while the in-flight window is full, and surfaces any
// reader-detected error so the sender stops pushing into a dead pipe.
func (r *run) stalled() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.pending) >= r.opts.MaxInflight && r.connErr == nil && r.fatalErr == nil && r.done == nil {
		r.cond.Wait()
	}
	if r.fatalErr != nil {
		return r.fatalErr
	}
	return r.connErr
}

func (r *run) sendEpoch(bw *bufio.Writer, num int, payload []byte) error {
	start := time.Now()
	if err := failpoint.Inject(failpoint.SiteClientSend); err != nil {
		return err
	}
	if err := proto.WriteFrame(bw, proto.FrameEpoch, payload); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	r.opts.Trace.Span(traceTidSend, "send-epoch", start, time.Since(start), num)
	r.m.bytesOut.Add(int64(len(payload)) + 5)
	return nil
}

// jittered spreads a backoff delay by ±20%. A restarted butterflyd hands
// every one of its sessions the same connection error at the same instant;
// without jitter they all re-dial in lockstep at every backoff step — a
// synchronized stampede aimed at a server that is busy replaying WALs.
func jittered(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.8 + 0.4*rand.Float64()))
}

// shortSession trims a session token to its 12-hex-digit log label — the
// same label butterflyd uses, so one grep follows both sides.
func shortSession(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// encodeRow converts one block row into an Epoch frame payload.
func encodeRow(num int, row []*epoch.Block, T int) ([]byte, error) {
	if len(row) != T {
		return nil, fmt.Errorf("client: epoch %d row has %d blocks, want %d", num, len(row), T)
	}
	events := make([][]trace.Event, T)
	for t, b := range row {
		if b == nil {
			return nil, fmt.Errorf("client: epoch %d thread %d: nil block", num, t)
		}
		events[t] = b.Events
	}
	return proto.EncodeEpoch(num, events)
}

// assemble builds the final Result from Done plus the per-tick reports, in
// tick order — exactly the order RunStream appends them. It fails when the
// assembled reports do not add up to Done's total: a Reports frame was lost
// or wrongly de-duplicated, and the Result would be silently short.
func (r *run) assemble() (*core.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ticks := make([]int, 0, len(r.reports))
	for tick := range r.reports {
		ticks = append(ticks, tick)
	}
	sort.Ints(ticks)
	n := 0
	for _, reps := range r.reports {
		n += len(reps)
	}
	if n != r.done.Reports {
		return nil, fmt.Errorf("client: assembled %d reports over %d ticks, server produced %d",
			n, len(ticks), r.done.Reports)
	}
	res := &core.Result{Epochs: r.done.Epochs, Events: r.done.Events}
	if n > 0 {
		res.Reports = make([]core.Report, 0, n)
	}
	for _, tick := range ticks {
		res.Reports = append(res.Reports, r.reports[tick]...)
	}
	return res, nil
}
