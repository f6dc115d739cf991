package server_test

// Durable-store coverage (DESIGN.md §14): sessions must survive a full
// server death — shutdown or SIGKILL (crash_soak_test.go) — and resume
// byte-identically against the in-process oracle; a log that lost acked
// progress must be refused, not silently re-analyzed; disk failure must
// degrade a session, never abort it; and completed sessions must leave no
// segments behind.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
	"unsafe"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/server"
	"butterfly/internal/store"
	"butterfly/internal/trace"
)

// protoSession drives the wire protocol by hand, so tests control exactly
// where a connection dies relative to acks — the one thing client.Run
// deliberately hides.
type protoSession struct {
	t       *testing.T
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	reports map[int][]core.Report
}

func dialSession(t *testing.T, addr string) *protoSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &protoSession{t: t, conn: conn, br: bufio.NewReader(conn),
		bw: bufio.NewWriter(conn), reports: map[int][]core.Report{}}
}

// hello performs the handshake, returning the Welcome or the Reject.
func (p *protoSession) hello(h proto.Hello) (*proto.Welcome, *proto.Reject) {
	p.t.Helper()
	h.Proto = proto.Version
	if err := proto.WriteJSON(p.bw, proto.FrameHello, h); err != nil {
		p.t.Fatal(err)
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatal(err)
	}
	ft, payload, err := proto.ReadFrame(p.br)
	if err != nil {
		p.t.Fatal(err)
	}
	switch ft {
	case proto.FrameWelcome:
		var w proto.Welcome
		if err := json.Unmarshal(payload, &w); err != nil {
			p.t.Fatal(err)
		}
		return &w, nil
	case proto.FrameReject:
		var rej proto.Reject
		if err := json.Unmarshal(payload, &rej); err != nil {
			p.t.Fatal(err)
		}
		return nil, &rej
	}
	p.t.Fatalf("unexpected %v frame in handshake", ft)
	return nil, nil
}

func (p *protoSession) sendEpoch(g *epoch.Grid, l int) {
	p.t.Helper()
	row := make([][]trace.Event, len(g.Blocks[l]))
	for t, b := range g.Blocks[l] {
		row[t] = b.Events
	}
	payload, err := proto.EncodeEpoch(l, row)
	if err != nil {
		p.t.Fatal(err)
	}
	if err := proto.WriteFrame(p.bw, proto.FrameEpoch, payload); err != nil {
		p.t.Fatal(err)
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatal(err)
	}
}

// drainUntilAck reads frames until Ack(num), folding Reports into the
// dedup-by-tick map (exactly client.Run's rule).
func (p *protoSession) drainUntilAck(num int) {
	p.t.Helper()
	for {
		ft, payload, err := proto.ReadFrame(p.br)
		if err != nil {
			p.t.Fatalf("waiting for ack %d: %v", num, err)
		}
		switch ft {
		case proto.FrameAck:
			got, err := proto.DecodeAck(payload)
			if err != nil {
				p.t.Fatal(err)
			}
			if got == num {
				return
			}
		case proto.FrameReports:
			p.addReports(payload)
		default:
			p.t.Fatalf("unexpected %v frame while waiting for ack", ft)
		}
	}
}

func (p *protoSession) addReports(payload []byte) {
	p.t.Helper()
	var rep proto.Reports
	if err := proto.DecodeReports(payload, &rep); err != nil {
		p.t.Fatal(err)
	}
	if _, seen := p.reports[rep.Epoch]; !seen {
		p.reports[rep.Epoch] = rep.Reports
	}
}

// finish sends End, drains to Done, and answers with the goodbye End.
func (p *protoSession) finish() proto.Done {
	p.t.Helper()
	if err := proto.WriteFrame(p.bw, proto.FrameEnd, nil); err != nil {
		p.t.Fatal(err)
	}
	if err := p.bw.Flush(); err != nil {
		p.t.Fatal(err)
	}
	d := p.drainUntilDone()
	if err := proto.WriteFrame(p.bw, proto.FrameEnd, nil); err == nil {
		p.bw.Flush()
	}
	return d
}

func (p *protoSession) drainUntilDone() proto.Done {
	p.t.Helper()
	for {
		ft, payload, err := proto.ReadFrame(p.br)
		if err != nil {
			p.t.Fatalf("waiting for Done: %v", err)
		}
		switch ft {
		case proto.FrameDone:
			var d proto.Done
			if err := json.Unmarshal(payload, &d); err != nil {
				p.t.Fatal(err)
			}
			return d
		case proto.FrameAck:
		case proto.FrameReports:
			p.addReports(payload)
		default:
			p.t.Fatalf("unexpected %v frame while waiting for Done", ft)
		}
	}
}

// assemble merges per-tick reports (earlier connection wins ties, matching
// client.Run) into a Result for checkRemote.
func assembleResult(d proto.Done, reportMaps ...map[int][]core.Report) *core.Result {
	merged := map[int][]core.Report{}
	for _, m := range reportMaps {
		for tick, reps := range m {
			if _, seen := merged[tick]; !seen {
				merged[tick] = reps
			}
		}
	}
	ticks := make([]int, 0, len(merged))
	for tick := range merged {
		ticks = append(ticks, tick)
	}
	sort.Ints(ticks)
	res := &core.Result{Epochs: d.Epochs, Events: d.Events}
	for _, tick := range ticks {
		res.Reports = append(res.Reports, merged[tick]...)
	}
	return res
}

// pickTrace finds a testTrace seed giving at least minEpochs epochs.
func pickTrace(t *testing.T, base int64, nthreads, minEpochs int) *epoch.Grid {
	t.Helper()
	for seed := base; seed < base+50; seed++ {
		if g := testTrace(t, seed, nthreads); g.NumEpochs() >= minEpochs {
			return g
		}
	}
	t.Fatalf("no testTrace seed near %d yields %d epochs", base, minEpochs)
	return nil
}

// restartableServer runs a durable server whose full death (drain + store
// close + fresh Listen on a new port) tests trigger explicitly.
type restartableServer struct {
	t   *testing.T
	dir string
	reg *obs.Registry
	cfg server.Config

	st     *store.Store
	s      *server.Server
	served chan error
}

func startDurable(t *testing.T, dir string, reg *obs.Registry, so store.Options, cfg server.Config) *restartableServer {
	t.Helper()
	rs := &restartableServer{t: t, dir: dir, reg: reg, cfg: cfg}
	so.Dir = dir
	so.Obs = reg
	st, err := store.Open(so)
	if err != nil {
		t.Fatal(err)
	}
	rs.st = st
	rs.cfg.Store = st
	rs.cfg.Obs = reg
	if rs.cfg.DetachGrace == 0 {
		rs.cfg.DetachGrace = time.Minute
	}
	s, err := server.Listen("127.0.0.1:0", rs.cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	rs.s = s
	rs.served = make(chan error, 1)
	go func() { rs.served <- s.Serve() }()
	t.Cleanup(func() { rs.stop() })
	return rs
}

func (rs *restartableServer) stop() {
	if rs.s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rs.s.Shutdown(ctx)
	if err := <-rs.served; err != nil {
		rs.t.Errorf("Serve: %v", err)
	}
	rs.s = nil
	rs.st.Close()
	rs.st = nil
}

// restart drains the server (WALs survive a drain) and brings up a fresh
// one over the same store directory, which runs recovery in Listen.
func (rs *restartableServer) restart(so store.Options) {
	rs.t.Helper()
	rs.stop()
	so.Dir = rs.dir
	so.Obs = rs.reg
	st, err := store.Open(so)
	if err != nil {
		rs.t.Fatal(err)
	}
	rs.st = st
	rs.cfg.Store = st
	s, err := server.Listen("127.0.0.1:0", rs.cfg)
	if err != nil {
		st.Close()
		rs.t.Fatal(err)
	}
	rs.s = s
	rs.served = make(chan error, 1)
	go func() { rs.served <- s.Serve() }()
}

func TestRecoverAfterServerRestart(t *testing.T) {
	reg := obs.New()
	so := store.Options{SnapshotEvery: 3}
	rs := startDurable(t, t.TempDir(), reg, so, server.Config{})
	g := pickTrace(t, 900, 4, 4)
	want := oracleRun(t, "addrcheck", g)
	h := proto.Hello{Lifeguard: "addrcheck", NumThreads: 4, AckedEpoch: -1}

	p1 := dialSession(t, rs.s.Addr())
	w, rej := p1.hello(h)
	if rej != nil {
		t.Fatalf("hello rejected: %+v", rej)
	}
	if !w.Durable || w.Recovered {
		t.Fatalf("fresh durable welcome = %+v", w)
	}
	half := g.NumEpochs() / 2
	for l := 0; l < half; l++ {
		p1.sendEpoch(g, l)
		p1.drainUntilAck(l)
	}
	p1.conn.Close() // die mid-stream, half the trace acked

	rs.restart(so)
	if got := reg.Counter(obs.MetricStoreRecoveredSessions).Value(); got != 1 {
		t.Fatalf("recovered-sessions metric = %d, want 1", got)
	}
	if got := reg.Counter(obs.MetricStoreRecoveredEpochs).Value(); got != int64(half) {
		t.Fatalf("recovered-epochs metric = %d, want %d", got, half)
	}

	h.Resume = w.Session
	h.AckedEpoch = half - 1
	p2 := dialSession(t, rs.s.Addr())
	w2, rej := p2.hello(h)
	if rej != nil {
		t.Fatalf("resume after restart rejected: %+v", rej)
	}
	if !w2.Recovered || !w2.Durable || w2.NextEpoch != half {
		t.Fatalf("recovered welcome = %+v, want recovered+durable at epoch %d", w2, half)
	}
	for l := half; l < g.NumEpochs(); l++ {
		p2.sendEpoch(g, l)
		p2.drainUntilAck(l)
	}
	done := p2.finish()
	checkRemote(t, "addrcheck", assembleResult(done, p1.reports, p2.reports), want)
}

func TestRecoverFinishedSession(t *testing.T) {
	reg := obs.New()
	so := store.Options{SnapshotEvery: 4}
	rs := startDurable(t, t.TempDir(), reg, so, server.Config{})
	g := pickTrace(t, 950, 3, 2)
	want := oracleRun(t, "memcheck", g)
	h := proto.Hello{Lifeguard: "memcheck", NumThreads: 3, AckedEpoch: -1}

	p1 := dialSession(t, rs.s.Addr())
	w, rej := p1.hello(h)
	if rej != nil {
		t.Fatalf("hello rejected: %+v", rej)
	}
	for l := 0; l < g.NumEpochs(); l++ {
		p1.sendEpoch(g, l)
		p1.drainUntilAck(l)
	}
	// End → Done, but die before the goodbye: the server must keep the
	// finished session durable, since it cannot know the Done landed.
	if err := proto.WriteFrame(p1.bw, proto.FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	if err := p1.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	done1 := p1.drainUntilDone()
	p1.conn.Close()

	rs.restart(so)

	h.Resume = w.Session
	h.AckedEpoch = g.NumEpochs() - 1
	p2 := dialSession(t, rs.s.Addr())
	w2, rej := p2.hello(h)
	if rej != nil {
		t.Fatalf("resume of finished session rejected: %+v", rej)
	}
	if !w2.Finished || !w2.Recovered {
		t.Fatalf("finished recovered welcome = %+v", w2)
	}
	done2 := p2.drainUntilDone()
	if proto.WriteFrame(p2.bw, proto.FrameEnd, nil) == nil {
		p2.bw.Flush()
	}
	if done2 != done1 {
		t.Fatalf("recovered Done %+v != original %+v", done2, done1)
	}
	checkRemote(t, "memcheck", assembleResult(done2, p1.reports, p2.reports), want)

	// The goodbye completes the session; its segments must be GC'd.
	waitForEmptyStore(t, rs.dir)
}

func TestLostProgressRejected(t *testing.T) {
	reg := obs.New()
	// No snapshots: the log tail is the last epoch record, so a one-byte
	// tear loses exactly one acked epoch — the fsync-off power-loss shape.
	so := store.Options{SnapshotEvery: 1 << 20}
	rs := startDurable(t, t.TempDir(), reg, so, server.Config{})
	g := pickTrace(t, 1000, 2, 2)
	h := proto.Hello{Lifeguard: "addrcheck", NumThreads: 2, AckedEpoch: -1}

	p1 := dialSession(t, rs.s.Addr())
	w, rej := p1.hello(h)
	if rej != nil {
		t.Fatalf("hello rejected: %+v", rej)
	}
	k := 2
	for l := 0; l < k; l++ {
		p1.sendEpoch(g, l)
		p1.drainUntilAck(l)
	}
	p1.conn.Close()
	rs.stop()

	// Tear one byte off the session's last segment: epoch k−1 is gone even
	// though its Ack went out.
	segs, err := filepath.Glob(filepath.Join(rs.dir, w.Session, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments found: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-1); err != nil {
		t.Fatal(err)
	}

	rs.restart(so)
	h.Resume = w.Session
	h.AckedEpoch = k - 1
	p2 := dialSession(t, rs.s.Addr())
	if _, rej := p2.hello(h); rej == nil || rej.Code != "lost-progress" {
		t.Fatalf("resume past lost progress = %+v, want lost-progress reject", rej)
	}
}

// denseGrid builds a 4-thread workload with fat epochs, so small WAL
// segment limits rotate every few epochs.
func denseGrid(t *testing.T, nepochs int) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(4)
	for th := 0; th < 4; th++ {
		b.T(trace.ThreadID(th))
		if th == 0 {
			for s := 0; s < 8; s++ {
				b.Alloc(0x200+uint64(s)*8, 8)
			}
		}
		for i := 0; i < nepochs*16; i++ {
			b.Read(0x200+uint64(i%8)*8, 4)
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDegradedSessionKeepsAnalyzing(t *testing.T) {
	reg := obs.New()
	so := store.Options{SnapshotEvery: 2, SegmentBytes: 600}
	rs := startDurable(t, t.TempDir(), reg, so, server.Config{})
	g := denseGrid(t, 24)
	want := oracleRun(t, "addrcheck", g)
	h := proto.Hello{Lifeguard: "addrcheck", NumThreads: 4, AckedEpoch: -1}

	p := dialSession(t, rs.s.Addr())
	w, rej := p.hello(h)
	if rej != nil {
		t.Fatalf("hello rejected: %+v", rej)
	}
	if !w.Durable {
		t.Fatal("expected a durable welcome")
	}
	p.sendEpoch(g, 0)
	p.drainUntilAck(0)

	// Yank the disk out from under the session: its directory disappears,
	// so the next segment rotation fails. The session must degrade — keep
	// acking, keep analyzing — and still finish byte-identical.
	if err := os.RemoveAll(filepath.Join(rs.dir, w.Session)); err != nil {
		t.Fatal(err)
	}
	for l := 1; l < g.NumEpochs(); l++ {
		p.sendEpoch(g, l)
		p.drainUntilAck(l)
	}
	done := p.finish()
	checkRemote(t, "addrcheck", assembleResult(done, p.reports), want)
	if got := reg.Counter(obs.MetricWALDegraded).Value(); got != 1 {
		t.Fatalf("degraded metric = %d, want 1", got)
	}
}

func TestWALGarbageCollectedOnCompletion(t *testing.T) {
	dir := t.TempDir()
	rs := startDurable(t, dir, obs.New(), store.Options{}, server.Config{})
	g := pickTrace(t, 1100, 3, 1)
	want := oracleRun(t, "addrcheck", g)
	got, err := client.Run(rs.s.Addr(), client.Options{}, epoch.NewGridRows(g))
	if err != nil {
		t.Fatal(err)
	}
	checkRemote(t, "addrcheck", got, want)
	waitForEmptyStore(t, dir)
}

// waitForEmptyStore polls until the store directory holds no session dirs
// (post-Done eviction is asynchronous).
func waitForEmptyStore(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		dirs, err := filepath.Glob(filepath.Join(dir, "*", "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("WAL segments not garbage-collected: %v", dirs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sendUntilError streams epochs from..NumEpochs-1, each waiting for its Ack,
// and returns the epoch whose frame drew an Error with the given code (-1 if
// every epoch was acked).
func (p *protoSession) sendUntilError(g *epoch.Grid, from int, code string) int {
	p.t.Helper()
	for l := from; l < g.NumEpochs(); l++ {
		p.sendEpoch(g, l)
		for acked := false; !acked; {
			ft, payload, err := proto.ReadFrame(p.br)
			if err != nil {
				p.t.Fatalf("waiting for ack %d: %v", l, err)
			}
			switch ft {
			case proto.FrameAck:
				acked = true
			case proto.FrameReports:
				p.addReports(payload)
			case proto.FrameError:
				var e proto.ErrorMsg
				if err := json.Unmarshal(payload, &e); err != nil {
					p.t.Fatal(err)
				}
				if e.Code != code {
					p.t.Fatalf("epoch %d drew error %+v, want code %q", l, e, code)
				}
				return l
			default:
				p.t.Fatalf("unexpected %v frame while waiting for ack %d", ft, l)
			}
		}
	}
	return -1
}

// TestRecoveredByteQuota: a session's -max-session-bytes usage survives a
// restart exactly, even with no cursor record in its log. The quota must
// trip at the same epoch as in a run that never restarted.
func TestRecoveredByteQuota(t *testing.T) {
	g := pickTrace(t, 1200, 2, 6)
	n := g.NumEpochs()
	// The quota admits epochs 0..n-2 and trips on the last one.
	var quota int64
	for l := 0; l < n; l++ {
		row := make([][]trace.Event, len(g.Blocks[l]))
		for th, b := range g.Blocks[l] {
			row[th] = b.Events
		}
		payload, err := proto.EncodeEpoch(l, row)
		if err != nil {
			t.Fatal(err)
		}
		quota += int64(len(payload)) + 5
	}
	quota--
	so := store.Options{SnapshotEvery: 1 << 20} // no cursor records at all
	cfg := server.Config{MaxSessionBytes: quota}
	h := proto.Hello{Lifeguard: "addrcheck", NumThreads: 2, AckedEpoch: -1}

	straight := startDurable(t, t.TempDir(), obs.New(), so, cfg)
	p0 := dialSession(t, straight.s.Addr())
	if _, rej := p0.hello(h); rej != nil {
		t.Fatalf("hello rejected: %+v", rej)
	}
	wantAt := p0.sendUntilError(g, 0, "quota-bytes")
	if wantAt != n-1 {
		t.Fatalf("uninterrupted run tripped the byte quota at epoch %d, want %d", wantAt, n-1)
	}

	rs := startDurable(t, t.TempDir(), obs.New(), so, cfg)
	p1 := dialSession(t, rs.s.Addr())
	w, rej := p1.hello(h)
	if rej != nil {
		t.Fatalf("hello rejected: %+v", rej)
	}
	half := n / 2
	for l := 0; l < half; l++ {
		p1.sendEpoch(g, l)
		p1.drainUntilAck(l)
	}
	p1.conn.Close()
	rs.restart(so)

	h.Resume = w.Session
	h.AckedEpoch = half - 1
	p2 := dialSession(t, rs.s.Addr())
	if w2, rej := p2.hello(h); rej != nil || !w2.Recovered {
		t.Fatalf("resume after restart = %+v, %+v", w2, rej)
	}
	if got := p2.sendUntilError(g, half, "quota-bytes"); got != wantAt {
		t.Fatalf("recovered session tripped the byte quota at epoch %d, want %d", got, wantAt)
	}
}

// churnGrid builds nepochs epochs in which thread 0 allocates and frees a
// slot that thread 1 reads: every epoch reports in both passes, so the
// trailing tick does too.
func churnGrid(t *testing.T, nepochs int) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(2)
	for i := 0; i < nepochs; i++ {
		b.T(0)
		b.Alloc(0x100, 8)
		b.Free(0x100, 8)
		b.T(1)
		b.Read(0x100, 4)
		b.Read(0x104, 4)
	}
	g, err := epoch.ChunkByCount(b.Build(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// recoveryRow is the part of a /sessions row that recovery regenerates.
type recoveryRow struct {
	ID           string `json:"id"`
	TraceID      string `json:"trace_id"`
	Attached     bool   `json:"attached"`
	Recovered    bool   `json:"recovered"`
	MemBytes     int64  `json:"mem_bytes"`
	Epochs       int64  `json:"epochs"`
	WindowEvents int64  `json:"window_events"`
	BytesIn      int64  `json:"bytes_in"`
	FramesIn     int64  `json:"frames_in"`
	AckFlushes   int64  `json:"ack_flushes"`
	ReportsOut   int64  `json:"reports_out"`
}

// sessionRow reads session id's /sessions row through s's introspection
// endpoints.
func sessionRow(t *testing.T, s *server.Server, id string) recoveryRow {
	t.Helper()
	mux := http.NewServeMux()
	for _, ep := range s.DebugEndpoints() {
		mux.Handle(ep.Pattern, ep.Handler)
	}
	hs := httptest.NewServer(mux)
	defer hs.Close()
	var answer struct {
		Sessions []recoveryRow `json:"sessions"`
	}
	if code := getJSON(t, hs.URL+"/sessions", &answer); code != http.StatusOK {
		t.Fatalf("/sessions = %d", code)
	}
	for _, row := range answer.Sessions {
		if row.ID == id[:12] {
			return row
		}
	}
	t.Fatalf("/sessions has no row for %s: %+v", id[:12], answer.Sessions)
	return recoveryRow{}
}

// TestRecoveryRegeneratesSessionRow drains and restarts a durable session
// and compares its /sessions row and the global memory estimate before and
// after: replay runs the live loop's per-epoch step, so everything the live
// loop counted for the session comes back equal, including a trace ID the
// server generated because the Hello carried none. ack_flushes and
// reports_out count writes to this process's client, so they restart at 0.
// The finished case ends the session before the drain: its estimate must
// cover the replay buffer including the trailing tick's reports, which the
// session holds for its client's resume.
func TestRecoveryRegeneratesSessionRow(t *testing.T) {
	for _, finished := range []bool{false, true} {
		t.Run(fmt.Sprintf("finished=%v", finished), func(t *testing.T) {
			reg := obs.New()
			so := store.Options{SnapshotEvery: 5}
			rs := startDurable(t, t.TempDir(), reg, so, server.Config{})
			g := churnGrid(t, 24)
			h := proto.Hello{Lifeguard: "addrcheck", NumThreads: 2, AckedEpoch: -1}

			p := dialSession(t, rs.s.Addr())
			w, rej := p.hello(h)
			if rej != nil {
				t.Fatalf("hello rejected: %+v", rej)
			}
			for l := 0; l < g.NumEpochs(); l++ {
				p.sendEpoch(g, l)
				p.drainUntilAck(l)
			}
			var done proto.Done
			if finished {
				if err := proto.WriteFrame(p.bw, proto.FrameEnd, nil); err != nil {
					t.Fatal(err)
				}
				if err := p.bw.Flush(); err != nil {
					t.Fatal(err)
				}
				done = p.drainUntilDone()
			}
			p.conn.Close() // no goodbye: the session stays resumable
			var before recoveryRow
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if before = sessionRow(t, rs.s, w.Session); !before.Attached || time.Now().After(deadline) {
					break
				}
			}
			if before.Attached {
				t.Fatal("session still attached 5s after its client hung up")
			}
			memEstimate := reg.Gauge(obs.MetricMemBudgetEstimate)
			estBefore := memEstimate.Value()

			rs.restart(so)
			after := sessionRow(t, rs.s, w.Session)
			if !after.Recovered {
				t.Fatalf("row after restart = %+v, want recovered", after)
			}
			if before.MemBytes <= 0 || before.FramesIn == 0 || before.ReportsOut == 0 {
				t.Fatalf("live row = %+v: nothing counted", before)
			}
			regenerated := func(r recoveryRow) recoveryRow {
				return recoveryRow{ID: r.ID, TraceID: r.TraceID, MemBytes: r.MemBytes, Epochs: r.Epochs,
					WindowEvents: r.WindowEvents, BytesIn: r.BytesIn, FramesIn: r.FramesIn}
			}
			if got, want := regenerated(after), regenerated(before); got != want {
				t.Errorf("recovered row\n  %+v\nwant the live row\n  %+v", got, want)
			}
			if estAfter := memEstimate.Value(); estAfter != estBefore || estAfter != after.MemBytes {
				t.Errorf("%s = %d after restart, %d before, want the session's %d",
					obs.MetricMemBudgetEstimate, estAfter, estBefore, after.MemBytes)
			}
			if after.AckFlushes != 0 || after.ReportsOut != 0 {
				t.Errorf("ack_flushes/reports_out = %d/%d after restart, want 0/0 (no client yet)",
					after.AckFlushes, after.ReportsOut)
			}
			if finished {
				trailing := p.reports[done.Epochs]
				if len(trailing) == 0 {
					t.Fatal("the trailing tick reported nothing; the case needs a trace that does")
				}
				var pinned int64
				for _, reps := range p.reports {
					for _, r := range reps {
						pinned += int64(unsafe.Sizeof(r)) + int64(len(r.Detail))
					}
				}
				if after.MemBytes < pinned {
					t.Errorf("finished session's estimate %d is below the %d bytes its %d reports pin",
						after.MemBytes, pinned, done.Reports)
				}
			}
		})
	}
}
