package server_test

// Soak and chaos coverage for butterflyd: many concurrent client sessions
// against one server must each produce reports identical to an in-process
// Driver.RunStream (the differential oracle), with and without the network
// failing underneath them. Run under -race by `make ci`.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/obs"
	"butterfly/internal/server"
	"butterfly/internal/trace"
)

// chaosProxy forwards TCP to a backend but severs each connection after a
// byte budget that doubles per connection — early connections die almost
// immediately, later ones live long enough to finish. It models a flaky
// network between client and butterflyd.
type chaosProxy struct {
	ln      net.Listener
	backend string
	base    int64
	nconns  atomic.Int64
	closed  chan struct{}
}

func newChaosProxy(t *testing.T, backend string, baseBudget int64) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend, base: baseBudget, closed: make(chan struct{})}
	go p.serve()
	t.Cleanup(func() {
		close(p.closed)
		ln.Close()
	})
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }
func (p *chaosProxy) conns() int64 { return p.nconns.Load() }

func (p *chaosProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.nconns.Add(1)
		budget := int64(-1) // unlimited once the budget overflows
		if shift := uint(n - 1); shift < 20 {
			budget = p.base << shift
		}
		go p.pipe(conn, budget)
	}
}

// pipe shuttles bytes both ways, killing the pair once the shared budget is
// spent (budget < 0 means never).
func (p *chaosProxy) pipe(conn net.Conn, budget int64) {
	defer conn.Close()
	back, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer back.Close()
	var remaining atomic.Int64
	remaining.Store(budget)
	kill := func() { conn.Close(); back.Close() }
	copy := func(dst, src net.Conn) {
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				if budget >= 0 && remaining.Add(int64(-n)) < 0 {
					kill()
					return
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				if err == io.EOF {
					if c, ok := dst.(*net.TCPConn); ok {
						c.CloseWrite()
					}
				}
				return
			}
		}
	}
	done := make(chan struct{}, 2)
	go func() { copy(back, conn); done <- struct{}{} }()
	go func() { copy(conn, back); done <- struct{}{} }()
	select {
	case <-done:
	case <-p.closed:
	}
	kill()
	<-time.After(0) // let the sibling copier observe the close
}

// TestSoakConcurrentSessions runs many client sessions at once — mixed
// lifeguards, mixed trace shapes — against a single butterflyd with a small
// worker pool, and requires every per-session result to be identical to the
// in-process RunStream oracle.
func TestSoakConcurrentSessions(t *testing.T) {
	sessions := 16
	if testing.Short() {
		sessions = 8
	}
	reg := obs.New()
	s := startServer(t, server.Config{
		MaxSessions: sessions,
		MaxAnalyze:  4, // force cross-session contention on the worker pool
		Obs:         reg,
	})

	// Hammer the introspection endpoints for the whole soak: /sessions and
	// /debug/flight must keep returning valid per-session JSON while all
	// sessions churn (under -race via `make soak`, this is the proof the
	// handlers only touch shared-safe state).
	ds, err := obs.StartDebugServer("localhost:0", reg, s.DebugEndpoints()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		var sawLive bool
		for {
			select {
			case <-pollStop:
				if !sawLive {
					t.Error("/sessions never showed a live session during the soak")
				}
				return
			default:
			}
			for _, path := range []string{"/sessions", "/debug/flight"} {
				resp, err := http.Get("http://" + ds.Addr() + path)
				if err != nil {
					continue // server teardown racing the last poll
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d (%v)", path, resp.StatusCode, rerr)
					return
				}
				var answer struct {
					Sessions []json.RawMessage `json:"sessions"`
				}
				if err := json.Unmarshal(body, &answer); err != nil {
					t.Errorf("GET %s: invalid JSON: %v", path, err)
					return
				}
				if path == "/sessions" && len(answer.Sessions) > 0 {
					sawLive = true
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() {
		close(pollStop)
		<-pollDone
	}()

	names := registry.Names()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			g := testTrace(t, int64(100+i), 1+i%6)
			want := oracleRun(t, name, g)
			got, err := client.Run(s.Addr(), client.Options{Lifeguard: name}, epoch.NewGridRows(g))
			if err != nil {
				errs <- fmt.Errorf("session %d (%s): %w", i, name, err)
				return
			}
			if got.Epochs != want.Epochs || got.Events != want.Events {
				errs <- fmt.Errorf("session %d (%s): epochs/events %d/%d, want %d/%d",
					i, name, got.Epochs, got.Events, want.Epochs, want.Events)
				return
			}
			if len(got.Reports) != len(want.Reports) {
				errs <- fmt.Errorf("session %d (%s): %d reports, want %d",
					i, name, len(got.Reports), len(want.Reports))
				return
			}
			for j := range got.Reports {
				if got.Reports[j] != want.Reports[j] {
					errs <- fmt.Errorf("session %d (%s): report %d = %v, want %v",
						i, name, j, got.Reports[j], want.Reports[j])
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	// The server's post-Done bookkeeping (goodbye read → evict) trails the
	// client's return slightly; give it a moment before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(obs.MetricSessionsCompleted).Value() != int64(sessions) &&
		time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Counter(obs.MetricSessionsCompleted).Value(); got != int64(sessions) {
		t.Errorf("completed sessions metric = %d, want %d", got, sessions)
	}
	if got := reg.Gauge(obs.MetricSessionsActive).Value(); got != 0 {
		t.Errorf("active sessions gauge = %d after completion, want 0", got)
	}
}

// TestSoakKillAndResume is the chaos variant: every session runs through
// its own connection-killing proxy and still must match the oracle exactly
// — resumed sessions lose no reports and duplicate none.
func TestSoakKillAndResume(t *testing.T) {
	sessions := 8
	if testing.Short() {
		sessions = 4
	}
	s := startServer(t, server.Config{
		MaxSessions: sessions,
		DetachGrace: time.Minute,
	})
	names := registry.Names()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := names[i%len(names)]
			g := testTrace(t, int64(500+i), 2+i%4)
			want := oracleRun(t, name, g)
			proxy := newChaosProxy(t, s.Addr(), 400)
			got, err := client.Run(proxy.addr(), client.Options{
				Lifeguard:   name,
				MaxRetries:  60,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  5 * time.Millisecond,
			}, epoch.NewGridRows(g))
			if err != nil {
				errs <- fmt.Errorf("session %d (%s) after %d conns: %w", i, name, proxy.conns(), err)
				return
			}
			if got.Epochs != want.Epochs || got.Events != want.Events ||
				len(got.Reports) != len(want.Reports) {
				errs <- fmt.Errorf("session %d (%s): result shape diverged", i, name)
				return
			}
			for j := range got.Reports {
				if got.Reports[j] != want.Reports[j] {
					errs <- fmt.Errorf("session %d (%s): report %d diverged after resume", i, name, j)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// floodTrace builds report-heavy AddrCheck traffic: every thread allocates
// 64 slots, then reads them so that every other read lands in the gap behind
// a slot, which fills Reports frames with hundreds of reports per tick.
func floodTrace(t *testing.T, nthreads, perThread int) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(nthreads)
	for th := 0; th < nthreads; th++ {
		b.T(trace.ThreadID(th))
		base := uint64(0x10000 + th*0x100000)
		for s := uint64(0); s < 64; s++ {
			b.Alloc(base+s*128, 64)
		}
		for i := uint64(0); i < uint64(perThread); i++ {
			b.Read(base+(i%64)*128+(i%2)*64, 1+i%8)
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 256)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSoakReportFlood runs report-heavy sessions at once, half of them
// through a connection-killing proxy, so the session's reused encode buffer, replay after
// resume and the client's one-string-per-frame decoding all run under
// contention; every session must still match the oracle report for report.
func TestSoakReportFlood(t *testing.T) {
	sessions, perThread := 6, 4096
	if testing.Short() {
		sessions, perThread = 4, 1024
	}
	s := startServer(t, server.Config{
		MaxSessions: sessions,
		MaxAnalyze:  2,
		DetachGrace: time.Minute,
	})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := floodTrace(t, 2+i%3, perThread)
			want := oracleRun(t, "addrcheck", g)
			if len(want.Reports) < perThread {
				errs <- fmt.Errorf("session %d: %d reports, the traffic is not report-heavy", i, len(want.Reports))
				return
			}
			addr, conns := s.Addr(), func() int64 { return 1 }
			if i%2 == 1 {
				proxy := newChaosProxy(t, s.Addr(), 4096)
				addr, conns = proxy.addr(), proxy.conns
			}
			got, err := client.Run(addr, client.Options{
				Lifeguard:   "addrcheck",
				MaxRetries:  60,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  5 * time.Millisecond,
			}, epoch.NewGridRows(g))
			if err != nil {
				errs <- fmt.Errorf("session %d after %d conns: %w", i, conns(), err)
				return
			}
			if got.Epochs != want.Epochs || got.Events != want.Events ||
				len(got.Reports) != len(want.Reports) {
				errs <- fmt.Errorf("session %d after %d conns: %d epochs, %d events, %d reports; want %d, %d, %d",
					i, conns(), got.Epochs, got.Events, len(got.Reports), want.Epochs, want.Events, len(want.Reports))
				return
			}
			for j := range got.Reports {
				if got.Reports[j] != want.Reports[j] {
					errs <- fmt.Errorf("session %d after %d conns: report %d = %v, want %v",
						i, conns(), j, got.Reports[j], want.Reports[j])
					return
				}
			}
			t.Logf("session %d: %d reports over %d conns", i, len(got.Reports), conns())
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkServerThroughput measures end-to-end events/sec through the full
// stack (client encode → TCP loopback → server decode → incremental driver
// → report stream) at several concurrency levels.
func BenchmarkServerThroughput(b *testing.B) {
	for _, sessions := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			// Post-Done eviction is asynchronous, so back-to-back iterations
			// briefly overlap; size the registry for the pipeline, not the
			// steady state.
			s, err := server.Listen("127.0.0.1:0", server.Config{MaxSessions: 1024})
			if err != nil {
				b.Fatal(err)
			}
			go s.Serve()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()

			grids := make([]*epoch.Grid, sessions)
			var events int64
			for i := range grids {
				grids[i] = benchGrid(b, int64(i))
				events += int64(grids[i].TotalEvents())
			}
			b.SetBytes(events) // "bytes" = application events analyzed
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < sessions; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := client.Run(s.Addr(), client.Options{}, epoch.NewGridRows(grids[i]))
						if err != nil {
							b.Error(err)
						} else if res.Events != grids[i].TotalEvents() {
							b.Errorf("session %d analyzed %d events, want %d",
								i, res.Events, grids[i].TotalEvents())
						}
					}(i)
				}
				wg.Wait()
			}
		})
	}
}

// benchGrid builds a dense deterministic workload — 4 threads × 2048
// mixed reads/writes over a small heap, 64 events per block — big enough
// that per-session handshake cost is amortized away.
func benchGrid(b *testing.B, seed int64) *epoch.Grid {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	bt := trace.NewBuilder(4)
	for th := 0; th < 4; th++ {
		bt.T(trace.ThreadID(th))
		if th == 0 {
			// Allocate the heap up front so the steady state is clean:
			// reports exist (early-window concurrency) but don't dominate.
			for s := 0; s < 8; s++ {
				bt.Alloc(0x100+uint64(s)*8, 8)
			}
		}
		for i := 0; i < 2048; i++ {
			addr := 0x100 + uint64(rng.Intn(8))*8
			if rng.Intn(2) == 0 {
				bt.Read(addr, 4)
			} else {
				bt.Write(addr, 4)
			}
		}
	}
	g, err := epoch.ChunkByCount(bt.Build(), 64)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

var _ core.BlockSource = (*epoch.GridRows)(nil)
