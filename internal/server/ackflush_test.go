package server

// Ack-coalescing coverage (DESIGN.md §10): serveSession flushes after an
// Ack only when the next frame is not already buffered whole. These tests
// count the server's socket writes through a wrapped listener and check
// that coalescing never costs an Ack: bursts share flushes, lock-step
// clients and half-arrived frames still get each Ack at once, and a shed
// session's coalesced Acks leave before it detaches.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
	"butterfly/internal/trace"
)

// countingConn counts the Write calls the server makes on a connection:
// one per bufio.Writer flush while frames stay under the buffer size. Once
// failWrites is set, every Write fails as on a connection the peer reset.
type countingConn struct {
	net.Conn
	writes     atomic.Int64
	failWrites atomic.Bool
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.failWrites.Load() {
		return 0, syscall.ECONNRESET
	}
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection and hands the wrapper
// to the test.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.accepted <- cc
	return cc, nil
}

// startCounting boots a server whose accepted connections count writes.
func startCounting(t *testing.T, cfg Config) (*Server, chan *countingConn) {
	t.Helper()
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *countingConn, 4)
	s.ln = &countingListener{Listener: s.ln, accepted: accepted}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, accepted
}

// ackClient is one raw protocol connection plus the server's side of it.
type ackClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	sc   *countingConn
	id   string
}

// dialCounting connects, says Hello for a 2-thread addrcheck session, and
// reads the Welcome.
func dialCounting(t *testing.T, s *Server, accepted chan *countingConn) *ackClient {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello bytes.Buffer
	h := proto.Hello{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 2}
	if err := proto.WriteJSON(&hello, proto.FrameHello, h); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	c := &ackClient{t: t, conn: conn, br: bufio.NewReader(conn), sc: <-accepted}
	ft, payload := c.next()
	if ft != proto.FrameWelcome {
		t.Fatalf("handshake answered %v: %s", ft, payload)
	}
	var w proto.Welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		t.Fatal(err)
	}
	c.id = w.Session
	return c
}

// next reads one frame, failing the test if none arrives within 5 s — the
// symptom of an Ack held back by coalescing.
func (c *ackClient) next() (proto.FrameType, []byte) {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := proto.ReadFrame(c.br)
	if err != nil {
		c.t.Fatalf("reading a frame: %v", err)
	}
	return ft, payload
}

// ack reads frames up to the next Ack and returns its epoch.
func (c *ackClient) ack() int {
	c.t.Helper()
	for {
		ft, payload := c.next()
		switch ft {
		case proto.FrameAck:
			n, err := proto.DecodeAck(payload)
			if err != nil {
				c.t.Fatal(err)
			}
			return n
		case proto.FrameReports:
		default:
			c.t.Fatalf("unexpected %v frame: %s", ft, payload)
		}
	}
}

// send writes raw bytes in one Write call.
func (c *ackClient) send(b []byte) {
	c.t.Helper()
	if _, err := c.conn.Write(b); err != nil {
		c.t.Fatal(err)
	}
}

// smallEpochs builds n epochs of a 2-thread trace, four events a block: an
// Epoch frame is a few dozen bytes, so a burst fits the server's 4 KiB
// read buffer many times over.
func smallEpochs(t *testing.T, n int) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(2)
	for th := 0; th < 2; th++ {
		b.T(trace.ThreadID(th))
		for l := 0; l < n; l++ {
			if l > 0 {
				b.Heartbeat()
			}
			b.Nop(4)
		}
	}
	g, err := epoch.ChunkByHeartbeat(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// epochFrame encodes epoch l of g as one wire frame.
func epochFrame(t *testing.T, g *epoch.Grid, l int) []byte {
	t.Helper()
	row := make([][]trace.Event, g.NumThreads)
	for th, blk := range g.Blocks[l] {
		row[th] = blk.Events
	}
	payload, err := proto.EncodeEpoch(l, row)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := proto.WriteFrame(&buf, proto.FrameEpoch, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAckCoalescingBurst sends N Epoch frames in one write: every Ack
// arrives, in order, in fewer than N flushes, and server.ack_flushes
// counts exactly the flushes made.
func TestAckCoalescingBurst(t *testing.T) {
	const N = 24
	reg := obs.New()
	s, accepted := startCounting(t, Config{Obs: reg})
	c := dialCounting(t, s, accepted)
	g := smallEpochs(t, N)
	var burst []byte
	for l := 0; l < N; l++ {
		burst = append(burst, epochFrame(t, g, l)...)
	}
	before := c.sc.writes.Load()
	c.send(burst)
	for l := 0; l < N; l++ {
		if got := c.ack(); got != l {
			t.Fatalf("Ack %d arrived where Ack %d was due", got, l)
		}
	}
	writes := c.sc.writes.Load() - before
	flushes := reg.Counter(obs.MetricServerAckFlushes).Value()
	t.Logf("%d Acks in %d writes", N, writes)
	if writes >= N {
		t.Errorf("%d Acks took %d writes; a burst should share flushes", N, writes)
	}
	if flushes != writes {
		t.Errorf("server.ack_flushes = %d, want the %d writes made", flushes, writes)
	}
}

// TestAckCoalescingLockStep is a window-1 client: it sends an epoch only
// after the previous Ack arrived, so nothing is ever buffered behind a
// frame and every Ack is flushed on its own.
func TestAckCoalescingLockStep(t *testing.T) {
	const N = 16
	reg := obs.New()
	s, accepted := startCounting(t, Config{Obs: reg})
	c := dialCounting(t, s, accepted)
	g := smallEpochs(t, N)
	before := c.sc.writes.Load()
	for l := 0; l < N; l++ {
		c.send(epochFrame(t, g, l))
		if got := c.ack(); got != l {
			t.Fatalf("Ack %d, want %d", got, l)
		}
	}
	if writes := c.sc.writes.Load() - before; writes != N {
		t.Errorf("lock-step client: %d writes for %d Acks, want one each", writes, N)
	}
	if flushes := reg.Counter(obs.MetricServerAckFlushes).Value(); flushes != N {
		t.Errorf("server.ack_flushes = %d, want %d", flushes, N)
	}
}

// TestAckNotHeldByPartialFrame sends epoch 0 together with the first bytes
// of epoch 1 — its length, type and part of its body. The next Read would
// block on the rest, so Ack 0 must go out now.
func TestAckNotHeldByPartialFrame(t *testing.T) {
	s, accepted := startCounting(t, Config{})
	g := smallEpochs(t, 2)
	f0, f1 := epochFrame(t, g, 0), epochFrame(t, g, 1)
	for _, cut := range []int{4, len(f1) - 1} { // length only; all but the last body byte
		c := dialCounting(t, s, accepted)
		c.send(append(append([]byte{}, f0...), f1[:cut]...))
		if got := c.ack(); got != 0 {
			t.Fatalf("cut %d: Ack %d, want 0", cut, got)
		}
		c.send(f1[cut:])
		if got := c.ack(); got != 1 {
			t.Fatalf("cut %d: Ack %d, want 1", cut, got)
		}
	}
}

// TestShedFlushesCoalescedAcks bursts epochs at a session while a sibling
// is attached, under a memory budget the session crosses on its third
// epoch. The Acks coalesced behind the burst must all leave before the
// shed detaches the session: the client sees Acks 0..k in order and then
// EOF, and k+1 is exactly where the checkpoint resumes.
func TestShedFlushesCoalescedAcks(t *testing.T) {
	// Each row holds 8 events and the window estimate charges 192 bytes an
	// event, so rows 0–2 hold 4,608 bytes against this 3,840-byte budget.
	const budget = 8 * 192 * 5 / 2
	reg := obs.New()
	s, accepted := startCounting(t, Config{Obs: reg, MemBudget: budget, DetachGrace: time.Minute})
	dialCounting(t, s, accepted) // the sibling: attached, idle
	c := dialCounting(t, s, accepted)
	const N = 12
	g := smallEpochs(t, N)
	var burst []byte
	for l := 0; l < N; l++ {
		burst = append(burst, epochFrame(t, g, l)...)
	}
	c.send(burst)
	last := -1
	for {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		ft, payload, err := proto.ReadFrame(c.br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after Ack %d: %v", last, err)
		}
		if ft != proto.FrameAck {
			t.Fatalf("unexpected %v frame: %s", ft, payload)
		}
		n, err := proto.DecodeAck(payload)
		if err != nil || n != last+1 {
			t.Fatalf("Ack %d (err %v) after Ack %d", n, err, last)
		}
		last = n
	}
	if shed := reg.Counter(obs.MetricMemBudgetShed).Value(); shed != 1 {
		t.Fatalf("mem.budget.shed = %d, want 1", shed)
	}
	s.mu.Lock()
	sess := s.sessions[c.id]
	s.mu.Unlock()
	if sess == nil {
		t.Fatal("shed session is gone; it should be detached")
	}
	if next := sess.inc.NextEpoch(); next != last+1 || last < 1 {
		t.Fatalf("client saw Acks up to %d, checkpoint resumes at %d; want %d and at least two Acks",
			last, next, last+1)
	}
}

// holdSlotAfterTick0 runs against a server with one analysis slot. It
// takes the slot as a busy sibling session would, sends epochs 0 and 1 of
// g in one write, and lets exactly tick 0 run: a release while tick 0
// waits passes the slot to it, and the acquire that follows gets the slot
// back when tick 0 lets go, ahead of tick 1. Until tick 0 waits, each
// release and acquire just takes the slot back. On return tick 1 waits for
// the slot; the returned func gives it up (the test's cleanup does, before
// the server's shutdown, if the test ends first).
func holdSlotAfterTick0(t *testing.T, s *Server, reg *obs.Registry, c *ackClient, g *epoch.Grid) (release func()) {
	t.Helper()
	s.acquire()
	held := true
	release = func() {
		if held {
			held = false
			s.release()
		}
	}
	t.Cleanup(release)
	c.send(append(epochFrame(t, g, 0), epochFrame(t, g, 1)...))
	ticks := reg.Counter(obs.MetricTicksInline)
	for ticks.Value() == 0 {
		time.Sleep(time.Millisecond)
		s.release()
		s.acquire()
	}
	if n := ticks.Value(); n != 1 {
		t.Fatalf("%d ticks ran while the test held the only slot, want 1", n)
	}
	return release
}

// TestAckNotHeldBySlotWait: with tick 1 waiting for the only analysis slot,
// Ack 0 — written but not flushed, since epoch 1 sat whole in the read
// buffer — must already have reached the client.
func TestAckNotHeldBySlotWait(t *testing.T) {
	reg := obs.New()
	s, accepted := startCounting(t, Config{Obs: reg, MaxAnalyze: 1})
	c := dialCounting(t, s, accepted)
	release := holdSlotAfterTick0(t, s, reg, c, smallEpochs(t, 2))
	if got := c.ack(); got != 0 {
		t.Fatalf("Ack %d, want 0", got)
	}
	release()
	if got := c.ack(); got != 1 {
		t.Fatalf("Ack %d, want 1", got)
	}
}

// TestFailedSlotWaitFlushKeepsEpochOrder makes the flush before a slot wait
// fail, as on a connection the client reset: epoch 1 is decoded by then,
// so the session must still feed it before it detaches, and a resume must
// continue at epoch 2 in order.
func TestFailedSlotWaitFlushKeepsEpochOrder(t *testing.T) {
	reg := obs.New()
	s, accepted := startCounting(t, Config{Obs: reg, MaxAnalyze: 1, DetachGrace: time.Minute})
	c := dialCounting(t, s, accepted)
	g := smallEpochs(t, 3)
	c.sc.failWrites.Store(true)
	holdSlotAfterTick0(t, s, reg, c, g)()

	// Resume once the session has detached (busy until then).
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		<-accepted
		var hello bytes.Buffer
		h := proto.Hello{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 2, Resume: c.id, AckedEpoch: -1}
		if err := proto.WriteJSON(&hello, proto.FrameHello, h); err != nil {
			t.Fatal(err)
		}
		r := &ackClient{t: t, conn: conn, br: bufio.NewReader(conn)}
		r.send(hello.Bytes())
		ft, payload := r.next()
		if ft == proto.FrameReject && time.Now().Before(deadline) {
			conn.Close()
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if ft != proto.FrameWelcome {
			t.Fatalf("resume answered %v: %s", ft, payload)
		}
		var w proto.Welcome
		if err := json.Unmarshal(payload, &w); err != nil {
			t.Fatal(err)
		}
		if w.NextEpoch != 2 {
			t.Fatalf("resumed at epoch %d, want 2: the decoded epoch 1 was not fed", w.NextEpoch)
		}
		r.send(epochFrame(t, g, 2))
		if got := r.ack(); got != 2 {
			t.Fatalf("Ack %d after resume, want 2", got)
		}
		return
	}
}

// TestDurableSessionFlushesEveryAck bursts epochs at a durable session: a
// WAL append may sync, so no Ack waits behind the next tick's, and every
// Ack takes a flush of its own.
func TestDurableSessionFlushesEveryAck(t *testing.T) {
	const N = 8
	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() }) // after the server's shutdown
	reg := obs.New()
	s, accepted := startCounting(t, Config{Obs: reg, Store: st})
	c := dialCounting(t, s, accepted)
	g := smallEpochs(t, N)
	var burst []byte
	for l := 0; l < N; l++ {
		burst = append(burst, epochFrame(t, g, l)...)
	}
	c.send(burst)
	for l := 0; l < N; l++ {
		if got := c.ack(); got != l {
			t.Fatalf("Ack %d arrived where Ack %d was due", got, l)
		}
	}
	if flushes := reg.Counter(obs.MetricServerAckFlushes).Value(); flushes != N {
		t.Errorf("durable session: server.ack_flushes = %d, want one per Ack (%d)", flushes, N)
	}
}
