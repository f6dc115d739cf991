// Command butterflyd serves butterfly-analysis sessions over TCP: many
// clients stream epoch-framed traces concurrently, each analyzed by its own
// incremental driver under shared admission control (bounded sessions,
// bounded analysis worker pool, per-session quotas). Sessions checkpoint
// after every epoch — a dropped client reconnects and resumes from the last
// acknowledged epoch instead of re-uploading the trace (DESIGN.md §10).
//
// Usage:
//
//	butterflyd -addr :7137 -max-sessions 64 -debug-addr :7138
//
// Clients connect with `butterfly-run -remote host:7137 ...`. SIGINT/SIGTERM
// triggers a graceful drain: no new sessions are admitted and live sessions
// may finish within -drain-timeout before being force-closed. SIGQUIT dumps
// every live session's flight recorder to stderr and keeps serving.
//
// Observability (DESIGN.md §13): the -debug-addr server exposes /metrics
// (global and per-session series), /healthz, /sessions (live per-session
// JSON), /debug/flight?session= (post-mortem rings), /debug/vars and
// /debug/pprof. -log-level/-log-format shape the structured event log;
// -trace-dir makes every session write a Chrome trace that merges with the
// client's -trace-out file via their shared trace ID.
//
// Durability (DESIGN.md §14): with -data-dir DIR every session keeps a
// write-ahead log of its epochs, appended before each Ack, so sessions
// survive a killed butterflyd — a restarting server replays incomplete
// sessions through fresh drivers (deterministic, so state and reports
// rebuild exactly) and clients resume from their last Ack. -fsync picks
// the policy (per-ack, batched, off; every policy survives SIGKILL,
// per-ack also survives power loss) and -snapshot-every the progress
// cursor cadence. Disk errors degrade a session to in-memory instead of
// killing it.
//
// Robustness (DESIGN.md §15): a panicking lifeguard quarantines only its
// own session; -write-timeout detaches slow readers (repeat offenders are
// evicted); -mem-budget/-session-mem-budget bound analysis-state memory
// (global pressure sheds idle sessions and rejects resumes with
// "overloaded", a per-session breach aborts with "quota-mem"). A binary
// built with -tags failpoints accepts -failpoints (or
// $BUTTERFLY_FAILPOINTS) to inject deterministic faults for chaos testing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"butterfly/internal/failpoint"
	"butterfly/internal/obs"
	"butterfly/internal/server"
	"butterfly/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":7137", "listen address for analysis sessions")
		maxSessions = flag.Int("max-sessions", 64, "maximum live sessions (attached + detached); further Hellos are rejected")
		maxAnalyze  = flag.Int("max-analyze", 0, "maximum concurrently analyzing epoch ticks across all sessions (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 0, "address shards per session's lifeguard state; results identical at any count (0 = GOMAXPROCS); lifeguards that cannot shard report 1 in the handshake")
		maxBytes    = flag.Int64("max-session-bytes", 0, "per-session wire-byte quota (0 = unlimited)")
		maxEpochs   = flag.Int64("max-session-epochs", 0, "per-session epoch quota (0 = unlimited)")
		grace       = flag.Duration("grace", 2*time.Minute, "how long a disconnected session's checkpoint is kept resumable")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for live sessions before force-closing")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /healthz, /sessions, /debug/flight, /debug/vars and /debug/pprof on this address")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat   = flag.String("log-format", "text", "log format: text, json")
		traceDir    = flag.String("trace-dir", "", "write each session's Chrome trace to this directory at eviction")
		flightDepth = flag.Int("flight-depth", 0, "events per session flight-recorder ring (0 = 256)")

		dataDir   = flag.String("data-dir", "", "durable session store directory: sessions survive server restarts via per-session write-ahead logs (empty = in-memory only)")
		fsyncMode = flag.String("fsync", "batched", "WAL durability policy: per-ack (fsync before every Ack), batched (group writeback, fsync at segment seals), off")
		snapEvery = flag.Int("snapshot-every", 0, "epochs between WAL snapshot records (0 = 256)")

		memBudget    = flag.Int64("mem-budget", 0, "global analysis-state memory budget in bytes; over budget, idle sessions are shed and resumes rejected with 'overloaded' (0 = unlimited)")
		sessBudget   = flag.Int64("session-mem-budget", 0, "per-session analysis-state memory budget in bytes; a session over budget is aborted with 'quota-mem' (0 = unlimited)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-write deadline on session connections; slow clients are detached, repeat offenders evicted (0 = 30s, negative = no deadline)")
		failpoints   = flag.String("failpoints", "", "fault-injection spec, e.g. 'store.fsync=error%3,server.feed=1*panic' (requires a binary built with -tags failpoints; also read from $"+failpoint.EnvVar+")")
	)
	flag.Parse()

	// Arm fault injection before anything touches disk or the network. On a
	// binary built without -tags failpoints, a non-empty spec is refused
	// loudly here — a chaos plan must never be silently ignored.
	if err := failpoint.Setup(*failpoints); err != nil {
		fatalf("-failpoints: %v", err)
	}

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatalf("%v", err)
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("-trace-dir: %v", err)
		}
	}

	reg := obs.New()
	var st *store.Store
	if *dataDir != "" {
		policy, err := store.ParseFsync(*fsyncMode)
		if err != nil {
			fatalf("-fsync: %v", err)
		}
		st, err = store.Open(store.Options{
			Dir:           *dataDir,
			Fsync:         policy,
			SnapshotEvery: *snapEvery,
			Obs:           reg,
			Log:           log,
		})
		if err != nil {
			fatalf("-data-dir: %v", err)
		}
		defer st.Close()
		log.Info("durable session store open", "dir", st.Dir(), "fsync", policy.String())
	}
	s, err := server.Listen(*addr, server.Config{
		MaxSessions:      *maxSessions,
		MaxAnalyze:       *maxAnalyze,
		Shards:           *shards,
		MaxSessionBytes:  *maxBytes,
		MaxSessionEpochs: *maxEpochs,
		DetachGrace:      *grace,
		Obs:              reg,
		Log:              log,
		TraceDir:         *traceDir,
		FlightDepth:      *flightDepth,
		Store:            st,
		MemBudget:        *memBudget,
		SessionMemBudget: *sessBudget,
		WriteTimeout:     *writeTimeout,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, reg, s.DebugEndpoints()...)
		if err != nil {
			fatalf("%v", err)
		}
		defer ds.Close()
		log.Info("debug server listening", "addr", ds.Addr(),
			"endpoints", "/metrics /healthz /sessions /debug/flight /debug/vars /debug/pprof")
	}
	log.Info("butterflyd listening", "addr", s.Addr(), "max_sessions", *maxSessions)

	// SIGQUIT is the live post-mortem: dump every session's flight ring and
	// keep serving (mirroring the Go runtime's own SIGQUIT spirit, minus the
	// process exit).
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			s.DumpFlights(os.Stderr)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	select {
	case err := <-served:
		fatalf("serve: %v", err)
	case got := <-sig:
		log.Info("signal received, draining", "signal", got.String(), "timeout", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			log.Warn("drain deadline hit; live connections force-closed")
		}
		if err := <-served; err != nil {
			fatalf("serve: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	// Pre-logger failures (flag validation, bind errors) still need a line.
	slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("butterflyd: " + fmt.Sprintf(format, args...))
	os.Exit(1)
}
