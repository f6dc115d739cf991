// Command butterfly-run executes a butterfly-analysis lifeguard over a
// trace file produced by tracegen (or any tool emitting the trace format).
//
// Usage:
//
//	butterfly-run -lifeguard addrcheck -heapbase 0x100000 ocean.bfly
//
// With -compare, the trace's embedded ground-truth interleaving is replayed
// through the sequential oracle and the butterfly reports are scored
// against it (true/false positives; false negatives are impossible and
// verified).
//
// With -stream, the input is the epoch-framed streaming format ("BFLYS1",
// from tracegen -format stream) and the analysis runs through the
// incremental pipelined driver: epochs are decoded and analyzed as they
// arrive — stdin piping works without buffering the whole trace — and only
// the sliding window is held in memory. Streamed traces carry no heartbeats
// or ground truth, so -stream excludes -h, -text and -compare.
//
// Telemetry (DESIGN.md §9): -stats prints an end-of-run summary (epochs/sec,
// per-stage p50/p99 latencies, peak window size), -trace-out writes a
// Perfetto-loadable Chrome trace with one span per (epoch, thread, stage),
// -progress N heartbeats to stderr every N epochs, and -debug-addr serves
// Prometheus /metrics, expvar and pprof while the run is live.
//
// With -remote host:port, the analysis runs on a butterflyd server instead
// of in-process: the trace (batch or -stream) is streamed over TCP epoch by
// epoch, reports stream back, and a dropped connection resumes from the
// server's checkpoint (DESIGN.md §10). -remote excludes -compare, which
// needs the local oracle. -remote with -trace-out records the client-side
// spans (dial/handshake, per-epoch sends) stamped with the run's trace ID;
// when butterflyd runs with -trace-dir, the two files merge into one
// cross-process timeline (DESIGN.md §13).
//
// -log-level/-log-format shape the structured event log on stderr.
//
// With -exit-code, the process exits 2 when the analysis produced any
// reports (and 1 on operational errors, 0 on a clean, report-free run) so
// scripts and CI can gate on findings.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/failpoint"
	"butterfly/internal/interleave"
	"butterfly/internal/lifeguard"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/obs"
	"butterfly/internal/trace"
)

func main() {
	var (
		lgName   = flag.String("lifeguard", "addrcheck", "lifeguard: addrcheck, memcheck, taintcheck or lockset")
		heapBase = flag.Uint64("heapbase", 1<<20, "heap-only filter: ignore accesses below this address (addrcheck)")
		h        = flag.Int("h", 0, "re-chunk epochs at this size (0 = use the trace's heartbeats)")
		relaxed  = flag.Bool("relaxed", false, "taintcheck: use the relaxed-memory-model termination condition")
		compare  = flag.Bool("compare", false, "score against the trace's ground-truth interleaving")
		seq      = flag.Bool("seq", false, "run the driver sequentially")
		maxShow  = flag.Int("max-reports", 20, "print at most this many reports")
		text     = flag.Bool("text", false, "input is in text format")
		stream   = flag.Bool("stream", false, "input is in the streaming format; analyze incrementally")
		remote   = flag.String("remote", "", "run the analysis on the butterflyd at this host:port instead of in-process")
		exitCode = flag.Bool("exit-code", false, "exit 2 if the analysis produced any reports")

		reconnectMax = flag.Duration("reconnect-max", 0, "-remote: give up after this much wall-clock time without server progress (0 = retry-count limit only)")
		failpoints   = flag.String("failpoints", "", "fault-injection spec, e.g. 'client.dial=2*error' (requires a binary built with -tags failpoints; also read from $"+failpoint.EnvVar+")")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address for the run's duration")
		stats     = flag.Bool("stats", false, "print an end-of-run metrics summary (epochs/sec, stage p50/p99, peak window)")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON file (load in Perfetto); in-process: one span per (epoch, thread, stage); -remote: dial and send spans, mergeable with the server's trace")
		progress  = flag.Int("progress", 0, "print a heartbeat to stderr every N epochs (0 = off)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text, json")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatalf("%v", err)
	}
	// Arm fault injection first; a stub binary refuses a non-empty spec
	// loudly instead of silently running fault-free.
	if err := failpoint.Setup(*failpoints); err != nil {
		fatalf("-failpoints: %v", err)
	}
	if *stream {
		if *text || *compare || *h > 0 {
			fatalf("-stream cannot be combined with -text, -compare or -h: streamed traces carry neither heartbeats nor ground truth")
		}
	}
	if *remote != "" && *compare {
		fatalf("-remote cannot be combined with -compare: the oracle needs the in-process driver")
	}

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}

	// Telemetry: a registry when anything will read it, a trace recorder
	// when spans will be exported. Leaving both nil keeps the driver's hot
	// paths uninstrumented.
	var reg *obs.Registry
	if *stats || *progress > 0 || *debugAddr != "" {
		reg = obs.New()
	}
	var rec *obs.TraceRecorder
	if *traceOut != "" {
		rec = obs.NewTraceRecorder()
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			fatalf("%v", err)
		}
		defer ds.Close()
		log.Info("debug server listening", "addr", ds.Addr())
	}

	var tr *trace.Trace
	var g *epoch.Grid
	var src core.BlockSource
	if *stream {
		sr, err := trace.NewStreamReader(in)
		if err != nil {
			fatalf("reading %s: %v", name, err)
		}
		sr.Instrument(reg)
		src = epoch.NewStreamRows(sr)
	} else {
		if *text {
			tr, err = trace.ReadText(in)
		} else {
			tr, err = trace.ReadBinary(in)
		}
		if err != nil {
			fatalf("reading %s: %v", name, err)
		}
		if *h > 0 {
			g, err = epoch.ChunkByCount(tr, *h)
		} else {
			g, err = epoch.ChunkByHeartbeat(tr)
		}
		if err != nil {
			fatalf("chunking: %v", err)
		}
	}

	lgOpts := registry.Options{HeapBase: *heapBase, Relaxed: *relaxed}
	lg, err := registry.New(*lgName, lgOpts)
	if err != nil {
		fatalf("%v", err)
	}

	var mon *obs.Progress
	if *progress > 0 {
		mon = obs.StartProgress(os.Stderr, reg, *progress)
	}
	var res *core.Result
	var nthreads int
	switch {
	case *remote != "":
		if src == nil {
			src = epoch.NewGridRows(g)
		}
		res, err = client.Run(*remote, client.Options{
			Lifeguard:    *lgName,
			HeapBase:     *heapBase,
			Relaxed:      *relaxed,
			Serial:       *seq,
			Obs:          reg,
			Log:          log,
			Trace:        rec,
			ReconnectMax: *reconnectMax,
		}, src)
		if errors.Is(err, client.ErrUnreachable) {
			// The service never answered: say that plainly instead of
			// surfacing the last raw dial error.
			log.Error("butterflyd unreachable: is the server running and the address right?",
				"addr", *remote, "err", err.Error())
			os.Exit(1)
		}
		if err != nil {
			fatalf("remote %s: %v", *remote, err)
		}
		nthreads = src.NumThreads()
	case *stream:
		d := &core.Driver{LG: lg, Parallel: !*seq, Obs: reg, Trace: rec}
		res, err = d.RunStream(src)
		if err != nil {
			fatalf("streaming %s: %v", name, err)
		}
		nthreads = src.NumThreads()
	default:
		d := &core.Driver{LG: lg, Parallel: !*seq, Obs: reg, Trace: rec}
		res = d.Run(g)
		nthreads = g.NumThreads
	}
	if mon != nil {
		mon.Stop()
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		bw := bufio.NewWriter(f)
		if err := rec.WriteJSON(bw); err == nil {
			err = bw.Flush()
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fatalf("writing %s: %v", *traceOut, err)
		}
		log.Info("trace written", "spans", rec.NumSpans(), "path", *traceOut,
			"viewer", "https://ui.perfetto.dev")
	}
	fmt.Printf("%s: %d threads, %d epochs, %d events → %d reports\n",
		lg.Name(), nthreads, res.Epochs, res.Events, len(res.Reports))
	for i, r := range res.Reports {
		if i >= *maxShow {
			fmt.Printf("  ... %d more\n", len(res.Reports)-*maxShow)
			break
		}
		fmt.Printf("  %v\n", r)
	}
	if *stats {
		fmt.Print(reg.Summary())
	}

	if *compare {
		if tr.Global == nil {
			fatalf("-compare requires a trace with ground truth")
		}
		oracle, err := registry.NewOracle(*lgName, lgOpts)
		if err != nil {
			fatalf("%v", err)
		}
		items, err := interleave.FromGlobal(g, tr)
		if err != nil {
			fatalf("%v", err)
		}
		truth := lifeguard.RunOracle(oracle, items)
		cmp := lifeguard.Compare(res.Reports, truth, tr.MemAccesses())
		fmt.Printf("ground truth: %d true errors; butterfly: %d TP, %d FP (%.6f%% of %d accesses), %d FN\n",
			len(truth), len(cmp.TruePositives), len(cmp.FalsePositives),
			100*cmp.FPRate(), cmp.MemAccesses, len(cmp.FalseNegatives))
		if len(cmp.FalseNegatives) > 0 {
			fatalf("FALSE NEGATIVES DETECTED — this violates Theorem 6.1/6.2 and is a bug")
		}
	}

	// Exit 2 on findings so scripts can gate on "clean trace" without
	// parsing output; operational failures above exit 1 via fatalf.
	if *exitCode && len(res.Reports) > 0 {
		os.Exit(2)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "butterfly-run: "+format+"\n", args...)
	os.Exit(1)
}
