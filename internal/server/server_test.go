package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/server"
	"butterfly/internal/trace"
)

// startServer boots a butterflyd on a free port and tears it down with the
// test.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	return s
}

// testTrace builds a deterministic workload touching every lifeguard's
// event vocabulary (allocation churn, wild accesses, taint flow, lock
// discipline violations), chunked into a ragged epoch grid.
func testTrace(t *testing.T, seed int64, nthreads int) *epoch.Grid {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(nthreads)
	const heapBase, heapSlots, slotSize = 0x100, 8, 8
	slot := func() uint64 { return heapBase + uint64(rng.Intn(heapSlots))*slotSize }
	loc := func() uint64 { return uint64(0x40 + rng.Intn(16)) }
	for th := 0; th < nthreads; th++ {
		b.T(trace.ThreadID(th))
		n := rng.Intn(60)
		if rng.Intn(8) == 0 {
			n = 0
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(16) {
			case 0:
				b.Alloc(slot(), slotSize)
			case 1:
				b.Free(slot(), slotSize)
			case 2, 3, 4:
				b.Read(slot(), uint64(1+rng.Intn(slotSize)))
			case 5, 6:
				b.Write(slot(), uint64(1+rng.Intn(slotSize)))
			case 7:
				b.Taint(loc(), uint64(1+rng.Intn(2)))
			case 8:
				b.Untaint(loc())
			case 9, 10:
				b.Unop(loc(), loc())
			case 11:
				b.Binop(loc(), loc(), loc())
			case 12:
				b.Jump(loc())
			case 13:
				b.Lock(uint64(1 + rng.Intn(3)))
			case 14:
				b.Unlock(uint64(1 + rng.Intn(3)))
			default:
				b.Nop(1)
			}
		}
	}
	h := []int{1, 2, 5, 16}[rng.Intn(4)]
	g, err := epoch.ChunkByCount(b.Build(), h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oracleRun is what the remote result must match: an in-process RunStream
// with the same lifeguard over the same rows.
func oracleRun(t *testing.T, name string, g *epoch.Grid) *core.Result {
	t.Helper()
	lg, err := registry.New(name, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&core.Driver{LG: lg, Parallel: true}).RunStream(epoch.NewGridRows(g))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkRemote asserts the remote result is identical to the in-process
// oracle: same report slice (content AND order), same totals. FinalSOS
// stays server-side, so it is not compared.
func checkRemote(t *testing.T, name string, got, want *core.Result) {
	t.Helper()
	if got.Epochs != want.Epochs || got.Events != want.Events {
		t.Fatalf("%s: epochs/events = %d/%d, want %d/%d",
			name, got.Epochs, got.Events, want.Epochs, want.Events)
	}
	if len(got.Reports) == 0 && len(want.Reports) == 0 {
		return
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Fatalf("%s: remote reports diverge from RunStream oracle\n got: %v\nwant: %v",
			name, got.Reports, want.Reports)
	}
}

func TestRemoteSessionMatchesRunStream(t *testing.T) {
	s := startServer(t, server.Config{})
	for _, name := range registry.Names() {
		g := testTrace(t, 7, 4)
		want := oracleRun(t, name, g)
		got, err := client.Run(s.Addr(), client.Options{Lifeguard: name}, epoch.NewGridRows(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkRemote(t, name, got, want)
		if got.FinalSOS != nil {
			t.Errorf("%s: remote result leaked FinalSOS", name)
		}
	}
}

func TestRemoteZeroThreads(t *testing.T) {
	// No server at all: a zero-thread trace completes locally.
	g, err := epoch.ChunkByCount(trace.NewBuilder(0).Build(), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Run("127.0.0.1:1", client.Options{}, epoch.NewGridRows(g))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 0 || len(res.Reports) != 0 {
		t.Fatalf("zero-thread remote run: got %+v", res)
	}
}

// rawHello dials the server and performs just the handshake, returning the
// response frame. The connection is left open in the returned conn.
func rawHello(t *testing.T, addr string, h proto.Hello) (net.Conn, proto.FrameType, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(conn)
	if err := proto.WriteJSON(bw, proto.FrameHello, h); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := proto.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		conn.Close()
		t.Fatalf("reading handshake answer: %v", err)
	}
	return conn, ft, payload
}

// wantReject asserts the handshake answer is a Reject with the given code.
func wantReject(t *testing.T, ft proto.FrameType, payload []byte, code string) {
	t.Helper()
	if ft != proto.FrameReject {
		t.Fatalf("got %v frame, want Reject", ft)
	}
	var rej proto.Reject
	if err := json.Unmarshal(payload, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Code != code {
		t.Fatalf("Reject code = %q (%s), want %q", rej.Code, rej.Reason, code)
	}
}

func validHello() proto.Hello {
	return proto.Hello{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 2}
}

// TestWelcomeReportsEffectiveShards pins the handshake's shard count: the
// server no longer shards lifeguard state, so every lifeguard's Welcome
// reads 1 (old clients still log the field).
func TestWelcomeReportsEffectiveShards(t *testing.T) {
	s := startServer(t, server.Config{})
	for _, lg := range []string{"addrcheck", "memcheck", "taintcheck", "lockset"} {
		h := validHello()
		h.Lifeguard = lg
		conn, ft, payload := rawHello(t, s.Addr(), h)
		if ft != proto.FrameWelcome {
			t.Fatalf("%s: got %v frame, want Welcome (%s)", lg, ft, payload)
		}
		var w proto.Welcome
		if err := json.Unmarshal(payload, &w); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if w.Shards != 1 {
			t.Errorf("%s: Welcome.Shards = %d, want 1", lg, w.Shards)
		}
	}
}

// TestIdleGC pins when butterflyd collects a finished session's heap: in the
// handler of a connection whose session was the last one registered, and only
// when no other connection remains.
func TestIdleGC(t *testing.T) {
	g := testTrace(t, 7, 2)
	// boot starts a server; drain shuts it down and waits for every
	// connection handler to return, so the count it returns is final.
	boot := func(t *testing.T) (s *server.Server, gcs *obs.Counter, drain func() int64) {
		reg := obs.New()
		s, err := server.Listen("127.0.0.1:0", server.Config{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- s.Serve() }()
		gcs = reg.Counter(obs.MetricServerIdleGCs)
		return s, gcs, func() int64 {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			if err := <-served; err != nil {
				t.Errorf("Serve: %v", err)
			}
			return gcs.Value()
		}
	}
	session := func(t *testing.T, addr string) {
		if _, err := client.Run(addr, client.Options{Lifeguard: "lockset"}, epoch.NewGridRows(g)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("sequential-sessions", func(t *testing.T) {
		s, gcs, drain := boot(t)
		session(t, s.Addr())
		// The first handler may still be closing when the client returns;
		// a second connection open by then would rightly suppress its GC.
		for deadline := time.Now().Add(10 * time.Second); gcs.Value() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no idle GC after the first session")
			}
		}
		session(t, s.Addr())
		if got := drain(); got != 2 {
			t.Fatalf("two sequential sessions ran %d idle GCs, want 2", got)
		}
	})
	t.Run("another-attached", func(t *testing.T) {
		s, _, drain := boot(t)
		other, ft, payload := rawHello(t, s.Addr(), validHello())
		if ft != proto.FrameWelcome {
			t.Fatalf("got %v frame, want Welcome (%s)", ft, payload)
		}
		session(t, s.Addr())
		other.Close() // detaches: the session stays registered
		if got := drain(); got != 0 {
			t.Fatalf("a session finishing beside an attached one ran %d idle GCs, want 0", got)
		}
	})
	t.Run("bare-connection", func(t *testing.T) {
		s, _, drain := boot(t)
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if got := drain(); got != 0 {
			t.Fatalf("a connection without a session ran %d idle GCs, want 0", got)
		}
	})
}

// TestIdleGCReturnsMemory pins what the idle collection is for: once the
// last session of a report-heavy run has left, the heap it freed (above all
// its report replay buffer) is returned to the OS, not kept idle in the
// process until the scavenger gets to it.
func TestIdleGCReturnsMemory(t *testing.T) {
	const T, perThread = 2, 1 << 15
	b := trace.NewBuilder(T)
	for th := 0; th < T; th++ {
		b.T(trace.ThreadID(th))
		for i := 0; i < perThread; i++ {
			b.Read(0x10_0000+uint64(i)*8, 8) // never allocated: one report each
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 256)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	s := startServer(t, server.Config{Obs: reg})
	gcs := reg.Counter(obs.MetricServerIdleGCs)
	res, err := client.Run(s.Addr(), client.Options{Lifeguard: "addrcheck"}, epoch.NewGridRows(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != T*perThread {
		t.Fatalf("got %d reports, want one per access (%d)", len(res.Reports), T*perThread)
	}
	for deadline := time.Now().Add(10 * time.Second); gcs.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no idle GC after the session")
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const bound = 4 << 20
	kept := ms.HeapIdle - ms.HeapReleased
	t.Logf("%d reports; after the idle GC %.2f MB of heap is idle and unreleased", len(res.Reports), float64(kept)/(1<<20))
	if kept > bound {
		t.Fatalf("after the idle GC the heap keeps %.1f MB idle and unreleased (bound %d MB)",
			float64(kept)/(1<<20), bound>>20)
	}
}

func TestRejectWhenFull(t *testing.T) {
	s := startServer(t, server.Config{MaxSessions: 1})
	occupier, ft, payload := rawHello(t, s.Addr(), validHello())
	defer occupier.Close()
	if ft != proto.FrameWelcome {
		t.Fatalf("first session: got %v frame, want Welcome (%s)", ft, payload)
	}
	conn, ft, payload := rawHello(t, s.Addr(), validHello())
	defer conn.Close()
	wantReject(t, ft, payload, "full")
}

func TestRejectBadRequests(t *testing.T) {
	s := startServer(t, server.Config{})
	cases := []struct {
		name string
		h    proto.Hello
		code string
	}{
		{"unknown-lifeguard", proto.Hello{Proto: proto.Version, Lifeguard: "nosuch", NumThreads: 2}, "bad-request"},
		{"zero-threads", proto.Hello{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 0}, "bad-request"},
		{"bad-version", proto.Hello{Proto: 99, Lifeguard: "addrcheck", NumThreads: 2}, "version"},
		{"unknown-session", proto.Hello{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 2,
			Resume: "deadbeef", AckedEpoch: -1}, "unknown-session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, ft, payload := rawHello(t, s.Addr(), tc.h)
			defer conn.Close()
			wantReject(t, ft, payload, tc.code)
		})
	}
}

func TestRejectBusyResume(t *testing.T) {
	s := startServer(t, server.Config{})
	conn, ft, payload := rawHello(t, s.Addr(), validHello())
	defer conn.Close()
	if ft != proto.FrameWelcome {
		t.Fatalf("got %v frame, want Welcome", ft)
	}
	var w proto.Welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		t.Fatal(err)
	}
	h := validHello()
	h.Resume = w.Session
	h.AckedEpoch = -1
	conn2, ft2, payload2 := rawHello(t, s.Addr(), h)
	defer conn2.Close()
	wantReject(t, ft2, payload2, "busy")
}

func TestQuotas(t *testing.T) {
	g := testTrace(t, 3, 3)
	t.Run("epochs", func(t *testing.T) {
		s := startServer(t, server.Config{MaxSessionEpochs: 1})
		_, err := client.Run(s.Addr(), client.Options{MaxRetries: 1}, epoch.NewGridRows(g))
		if err == nil || !strings.Contains(err.Error(), "quota-epochs") {
			t.Fatalf("err = %v, want quota-epochs abort", err)
		}
	})
	t.Run("bytes", func(t *testing.T) {
		s := startServer(t, server.Config{MaxSessionBytes: 16})
		_, err := client.Run(s.Addr(), client.Options{MaxRetries: 1}, epoch.NewGridRows(g))
		if err == nil || !strings.Contains(err.Error(), "quota-bytes") {
			t.Fatalf("err = %v, want quota-bytes abort", err)
		}
	})
}

func TestGracefulDrain(t *testing.T) {
	s, err := server.Listen("127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	// A session mid-stream when drain starts may run to completion.
	conn, ft, _ := rawHello(t, s.Addr(), validHello())
	defer conn.Close()
	if ft != proto.FrameWelcome {
		t.Fatalf("got %v frame, want Welcome", ft)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(ctx) }()

	// New connections are refused once the listener is down.
	for {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			break
		}
		// Accepted before ln.Close landed, or closed by the drain check.
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}

	// The idle session never finishes, so Shutdown force-closes at the
	// deadline and reports it.
	if err := <-shutdownErr; err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (idle conn force-closed)", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v", err)
	}
}

// TestResumeAfterDisconnect kills the connection between epochs and proves
// the client resumes from the server checkpoint: the final result is still
// identical to the in-process oracle.
func TestResumeAfterDisconnect(t *testing.T) {
	s := startServer(t, server.Config{DetachGrace: time.Minute})
	for _, name := range []string{"addrcheck", "lockset"} {
		g := testTrace(t, 11, 4)
		want := oracleRun(t, name, g)

		// Chop every connection after a growing byte budget; the client's
		// replay buffer and the server's checkpoint must stitch the stream
		// back together.
		proxy := newChaosProxy(t, s.Addr(), 600)
		got, err := client.Run(proxy.addr(), client.Options{
			Lifeguard:   name,
			MaxRetries:  50,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		}, epoch.NewGridRows(g))
		if err != nil {
			t.Fatalf("%s: %v (proxy cut %d conns)", name, err, proxy.conns())
		}
		if proxy.conns() < 2 {
			t.Fatalf("%s: proxy saw %d connections; the test never exercised resume", name, proxy.conns())
		}
		checkRemote(t, name, got, want)
	}
}
