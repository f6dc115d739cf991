//go:build failpoints

package server_test

// The chaos gate (`make chaos`, DESIGN.md §15): a matrix of failpoint
// policies runs against the multi-session differential soak, under -race.
// Every cell arms one fault plan and demands the strongest property that
// can survive it: sessions the fault cannot poison finish byte-identical
// to the in-process oracle, sessions it does poison die with exactly the
// advertised error code — never by taking the process or a sibling down.
//
// Store-backed cells run once per fsync policy, so the WAL fault paths are
// exercised under per-ack, batched and no-fsync writeback alike.

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/failpoint"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/server"
	"butterfly/internal/store"
)

// chaosCell is one matrix entry: a fault plan plus what must still hold.
type chaosCell struct {
	name string
	spec string

	sessions int  // concurrent client sessions (0 → 8)
	durable  bool // back the server with a WAL store
	so       store.Options

	// wantFail sessions must fail, each with an error containing failLike;
	// every other session must match the oracle byte for byte.
	wantFail int
	failLike string

	wantQuarantined int64            // required server.sessions.quarantined
	minHits         map[string]int64 // site → minimum injected-fault count
	minDegraded     int64            // required wal.degraded floor

	// fanout gives every session blocks of 256 events a thread, so every
	// tick but the trailing one reads enough to run on the pipeline
	// workers; the tiny default traces run every tick inline.
	fanout bool
}

// chaosMatrix covers every registered failpoint site with at least one
// policy; TestChaosSiteCoverage fails if a site is left out.
var chaosMatrix = []chaosCell{
	// WAL faults must degrade sessions to in-memory mode, never change
	// results: durability is best-effort, analysis is the contract.
	{
		name: "store-create-error", spec: "store.create=error", durable: true,
		minHits: map[string]int64{failpoint.SiteStoreCreate: 1},
	},
	{
		name: "store-append-error", spec: "store.append=1*error", durable: true,
		minHits: map[string]int64{failpoint.SiteStoreAppend: 1}, minDegraded: 1,
	},
	{
		name: "store-fsync-error", spec: "store.fsync=error%3", durable: true,
	},
	{
		name: "store-rotate-error", spec: "store.rotate=1*error", durable: true,
		so: store.Options{SegmentBytes: 600, SnapshotEvery: 2},
	},
	{
		name: "store-write-torn", spec: "store.write=1*shortwrite(7)", durable: true,
		minHits: map[string]int64{failpoint.SiteStoreWrite: 1},
	},

	// A corrupted epoch frame must kill exactly the session it arrived on,
	// with a protocol abort — not feed the analysis garbage.
	{
		name: "proto-decode-corrupt", spec: "proto.decode=1*corrupt",
		wantFail: 1, failLike: "(protocol)",
		minHits: map[string]int64{failpoint.SiteProtoDecode: 1},
	},

	// A panicking lifeguard — whether it erupts on the feeding goroutine or
	// on a pipeline-worker goroutine — quarantines its own session and nothing
	// else: 16 concurrent sessions, one poisoned, fifteen byte-identical.
	{
		name: "feed-panic-quarantine", spec: "server.feed=1*panic", sessions: 16,
		wantFail: 1, failLike: "(quarantined)", wantQuarantined: 1,
		minHits: map[string]int64{failpoint.SiteServerFeed: 1},
	},
	{
		name: "worker-panic-quarantine", spec: "core.pass=1*panic", fanout: true,
		wantFail: 1, failLike: "(quarantined): lifeguard panicked; session isolated: worker panic",
		wantQuarantined: 1,
		minHits:         map[string]int64{failpoint.SiteCorePass: 1},
	},

	// Connection-plane faults are the client's problem to survive: detach,
	// reconnect, resume from the checkpoint, finish identical.
	{
		name: "server-write-torn", spec: "server.write=1*shortwrite(3)",
		minHits: map[string]int64{failpoint.SiteServerWrite: 1},
	},
	{
		name: "server-read-error", spec: "server.read=1*error",
		minHits: map[string]int64{failpoint.SiteServerRead: 1},
	},
	{
		name: "server-read-stall", spec: "server.read=delay(10ms)%5",
	},
	{
		name: "client-dial-error", spec: "client.dial=2*error",
		minHits: map[string]int64{failpoint.SiteClientDial: 2},
	},
	{
		name: "client-send-error", spec: "client.send=1*error",
		minHits: map[string]int64{failpoint.SiteClientSend: 1},
	},
	{
		name: "client-read-error", spec: "client.read=1*error",
		minHits: map[string]int64{failpoint.SiteClientRead: 1},
	},
}

func TestChaosMatrix(t *testing.T) {
	if os.Getenv(failpoint.EnvVar) != "" {
		t.Fatalf("$%s is set; the matrix arms its own plans", failpoint.EnvVar)
	}
	for _, cell := range chaosMatrix {
		if !cell.durable {
			t.Run(cell.name, func(t *testing.T) { runChaosCell(t, cell, 0) })
			continue
		}
		for _, fs := range []store.Fsync{store.FsyncPerAck, store.FsyncBatched, store.FsyncOff} {
			cell := cell
			t.Run(fmt.Sprintf("%s/fsync=%s", cell.name, fs), func(t *testing.T) {
				runChaosCell(t, cell, fs)
			})
		}
	}
}

// runChaosCell arms one fault plan and runs the differential soak under it.
// Failpoint state is process-global, so cells never run in parallel.
func runChaosCell(t *testing.T, cell chaosCell, fs store.Fsync) {
	sessions := cell.sessions
	if sessions == 0 {
		sessions = 8
	}
	reg := obs.New()
	cfg := server.Config{
		// Headroom above the session count: a fault that kills a Welcome
		// in flight leaves the half-born session detached until the grace
		// timer; the retried Hello must not bounce off the limit.
		MaxSessions: sessions * 2,
		MaxAnalyze:  4,
		DetachGrace: time.Minute,
		Obs:         reg,
	}
	if cell.durable {
		so := cell.so
		so.Dir = t.TempDir()
		so.Fsync = fs
		so.Obs = reg
		st, err := store.Open(so)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		cfg.Store = st
	}
	s := startServer(t, cfg)

	// Oracles run in-process through the same core driver the server uses —
	// compute them all BEFORE arming, or a core.pass fault would poison the
	// ground truth itself.
	names := registry.Names()
	type workload struct {
		lifeguard string
		g         *epoch.Grid
		want      *core.Result
	}
	loads := make([]workload, sessions)
	for i := range loads {
		name := names[i%len(names)]
		g := testTrace(t, int64(7000+i), 1+i%6)
		if cell.fanout {
			g = floodTrace(t, 2+i%3, 512)
		}
		loads[i] = workload{lifeguard: name, g: g, want: oracleRun(t, name, g)}
	}

	if err := failpoint.Setup(cell.spec); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := range loads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := loads[i]
			got, err := client.Run(s.Addr(), client.Options{
				Lifeguard:   w.lifeguard,
				MaxRetries:  60,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  5 * time.Millisecond,
			}, epoch.NewGridRows(w.g))
			if err != nil {
				errs[i] = err
				return
			}
			if got.Epochs != w.want.Epochs || got.Events != w.want.Events ||
				len(got.Reports) != len(w.want.Reports) {
				errs[i] = fmt.Errorf("survivor result shape diverged: %d/%d/%d, want %d/%d/%d",
					got.Epochs, got.Events, len(got.Reports),
					w.want.Epochs, w.want.Events, len(w.want.Reports))
				return
			}
			for j := range got.Reports {
				if got.Reports[j] != w.want.Reports[j] {
					errs[i] = fmt.Errorf("survivor report %d = %v, want %v",
						j, got.Reports[j], w.want.Reports[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()

	var failed int
	for i, err := range errs {
		if err == nil {
			continue
		}
		if cell.failLike != "" && strings.Contains(err.Error(), cell.failLike) {
			failed++
			continue
		}
		t.Errorf("session %d (%s): %v", i, loads[i].lifeguard, err)
	}
	if failed != cell.wantFail {
		t.Errorf("%d sessions failed with %q, want exactly %d", failed, cell.failLike, cell.wantFail)
	}
	for site, min := range cell.minHits {
		if got := failpoint.Hits(site); got < min {
			t.Errorf("failpoint %s fired %d times, want >= %d", site, got, min)
		}
	}
	if cell.wantQuarantined > 0 {
		if got := reg.Counter(obs.MetricSessionsQuarantined).Value(); got != cell.wantQuarantined {
			t.Errorf("quarantined sessions = %d, want %d", got, cell.wantQuarantined)
		}
	}
	if cell.minDegraded > 0 {
		if got := reg.Counter(obs.MetricWALDegraded).Value(); got < cell.minDegraded {
			t.Errorf("wal.degraded = %d, want >= %d", got, cell.minDegraded)
		}
	}
	// Every injected fault must have reached the fault.injected metric via
	// the observer the server wires up at Listen.
	var totalHits int64
	for _, site := range failpoint.Sites() {
		totalHits += failpoint.Hits(site)
	}
	if got := reg.Counter(obs.MetricFaultInjected).Value(); got != totalHits {
		t.Errorf("fault.injected metric = %d, want %d (the Hits total)", got, totalHits)
	}
}

// TestChaosSiteCoverage fails when a registered failpoint site is never
// exercised by the matrix: adding a site without a chaos cell is a bug.
func TestChaosSiteCoverage(t *testing.T) {
	for _, site := range failpoint.Sites() {
		covered := false
		for _, cell := range chaosMatrix {
			if strings.Contains(cell.spec, site+"=") {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("failpoint site %s has no chaos-matrix cell", site)
		}
	}
}

// TestDegradedReentry pins the ENOSPC story end to end: a session whose WAL
// dies mid-run degrades to in-memory and still finishes byte-identical;
// after the "disk" recovers, the next session gets a durable WAL again —
// degradation is per-session, not a latch on the store.
func TestDegradedReentry(t *testing.T) {
	reg := obs.New()
	st, err := store.Open(store.Options{
		Dir: t.TempDir(), Fsync: store.FsyncPerAck, SnapshotEvery: 2, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := startServer(t, server.Config{MaxSessions: 4, Obs: reg, Store: st, DetachGrace: time.Minute})

	g := pickTrace(t, 7700, 4, 4)
	want := oracleRun(t, "addrcheck", g)
	appends := reg.Counter(obs.MetricWALAppends)

	// Disk full: the first append of session A fails; A must degrade and
	// keep serving, and its result must not change.
	if err := failpoint.Setup("store.append=1*error"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()
	got, err := client.Run(s.Addr(), client.Options{}, epoch.NewGridRows(g))
	if err != nil {
		t.Fatalf("degraded session: %v", err)
	}
	checkRemote(t, "degraded", got, want)
	if got := reg.Counter(obs.MetricWALDegraded).Value(); got != 1 {
		t.Fatalf("wal.degraded = %d after the fault, want 1", got)
	}
	appendsAfterA := appends.Value()

	// Space freed: a fresh session must come up durable — its epochs land
	// in the WAL — and nothing else may degrade.
	failpoint.Reset()
	got, err = client.Run(s.Addr(), client.Options{}, epoch.NewGridRows(g))
	if err != nil {
		t.Fatalf("post-recovery session: %v", err)
	}
	checkRemote(t, "post-recovery", got, want)
	if got := reg.Counter(obs.MetricWALDegraded).Value(); got != 1 {
		t.Fatalf("wal.degraded = %d after recovery, want still 1", got)
	}
	if gotAppends := appends.Value(); gotAppends < appendsAfterA+int64(g.NumEpochs()) {
		t.Fatalf("wal.appends = %d, want >= %d: the fresh session's epochs must hit the WAL",
			gotAppends, appendsAfterA+int64(g.NumEpochs()))
	}
}

// TestChaosReplayPanic: a lifeguard panic during boot replay discards the
// one session whose log poisoned it, never the boot (DESIGN.md §15). Two
// durable sessions are drained mid-stream, and the restart replays them
// with server.feed armed to panic once: Listen must succeed, exactly one
// session is dropped, and the survivor resumes and finishes byte-identical
// to the in-process oracle.
func TestChaosReplayPanic(t *testing.T) {
	reg := obs.New()
	so := store.Options{SnapshotEvery: 3}
	rs := startDurable(t, t.TempDir(), reg, so, server.Config{})
	type durable struct {
		h    proto.Hello
		g    *epoch.Grid
		want *core.Result
		p    *protoSession
		half int
	}
	var ss []*durable
	for i, lg := range []string{"addrcheck", "memcheck"} {
		g := pickTrace(t, int64(7800+100*i), 3, 4)
		d := &durable{h: proto.Hello{Lifeguard: lg, NumThreads: 3, AckedEpoch: -1},
			g: g, want: oracleRun(t, lg, g), p: dialSession(t, rs.s.Addr()), half: g.NumEpochs() / 2}
		w, rej := d.p.hello(d.h)
		if rej != nil {
			t.Fatalf("hello rejected: %+v", rej)
		}
		for l := 0; l < d.half; l++ {
			d.p.sendEpoch(g, l)
			d.p.drainUntilAck(l)
		}
		d.p.conn.Close()
		d.h.Resume, d.h.AckedEpoch = w.Session, d.half-1
		ss = append(ss, d)
	}

	if err := failpoint.Setup("server.feed=1*panic"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Reset()
	rs.restart(so) // fails the test if Listen does
	if got := failpoint.Hits(failpoint.SiteServerFeed); got != 1 {
		t.Fatalf("server.feed fired %d times during replay, want 1", got)
	}
	failpoint.Reset()
	if got := reg.Counter(obs.MetricStoreRecoveryDropped).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricStoreRecoveryDropped, got)
	}
	if got := reg.Counter(obs.MetricSessionsQuarantined).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", obs.MetricSessionsQuarantined, got)
	}

	survivors := 0
	for _, d := range ss {
		p := dialSession(t, rs.s.Addr())
		w, rej := p.hello(d.h)
		if rej != nil {
			if rej.Code != "unknown-session" {
				t.Fatalf("%s resume rejected: %+v", d.h.Lifeguard, rej)
			}
			continue
		}
		survivors++
		if !w.Recovered || w.NextEpoch != d.half {
			t.Fatalf("%s resumed with %+v, want recovered at epoch %d", d.h.Lifeguard, w, d.half)
		}
		for l := d.half; l < d.g.NumEpochs(); l++ {
			p.sendEpoch(d.g, l)
			p.drainUntilAck(l)
		}
		checkRemote(t, d.h.Lifeguard, assembleResult(p.finish(), d.p.reports, p.reports), d.want)
	}
	if survivors != 1 {
		t.Fatalf("%d sessions survived the poisoned replay, want 1", survivors)
	}
}
