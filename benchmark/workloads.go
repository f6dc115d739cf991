package main

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one named set of inputs. prepare is the set-up whose time is
// reported as setup_s: it generates (and for local workloads encodes) the
// inputs from the seed and, for serve workloads, starts butterflyd. It runs
// several times a run; measure runs once, on the last preparation.
type workload struct {
	name    string
	serve   bool // drives butterflyd; otherwise local
	prepare func(x *runCtx) (*prepared, error)
	measure func(x *runCtx, p *prepared) (*outcome, error)
}

// runCtx is what a run was asked for.
type runCtx struct {
	seed    int64
	seconds float64
	traced  bool
	clk     clock
	tracer  *tracer // spans of the traced passes; nil unless traced
	bin     string  // butterflyd, built before the first serve set-up
	tmp     string  // this run's scratch directory
}

// prepared is one set-up's product.
type prepared struct {
	traffics []*traffic
	inputs   []*localInput
	daemon   *daemon
}

func (p *prepared) release() error {
	if p == nil || p.daemon == nil {
		return nil
	}
	d := p.daemon
	p.daemon = nil
	err := d.stop()
	if d.dataDir != "" {
		if rmErr := os.RemoveAll(d.dataDir); err == nil {
			err = rmErr
		}
	}
	return err
}

// sessionSummary identifies one session's input and reference result;
// golden.json holds these for the default seed.
type sessionSummary struct {
	Name    string `json:"name"`
	Events  int    `json:"events"`
	Epochs  int    `json:"epochs"`
	Reports int    `json:"reports"`
	SHA256  string `json:"sha256"`       // of the ordered reports
	Input   string `json:"input_sha256"` // of the encoded input
}

func summarize(name string, ref *reference) sessionSummary {
	return sessionSummary{Name: name, Events: ref.events, Epochs: ref.epochs(), Reports: ref.reports(),
		SHA256: ref.digest(), Input: hex.EncodeToString(ref.input.Sum(nil))}
}

// outcome is what measuring a workload yielded.
type outcome struct {
	attempted int // epochs
	failed    int
	e2e       map[string]float64 // every end-to-end metric but setup_s
	layers    map[string]float64 // per-layer metrics; traced runs only
	sessions  []sessionSummary
	timedWall float64
	broken    bool // a session failed in a way its epoch counts may not show
}

// pacedInterval is the open loop's schedule: one epoch of 4 × 256 events due
// every 2.048 ms per session, which is 0.5 M events/s — about 40 % of what
// one of two concurrent closed-loop sessions sustains at this block size on
// the host the benchmark was defined on.
const pacedInterval = 2048 * time.Microsecond

// ackLimitMs is the latency limit client.ack_over_limit_share counts against.
const ackLimitMs = 10

// serveSpec says how a serve workload drives its sessions.
type serveSpec struct {
	name       string
	sequential bool          // one session at a time, the window split evenly
	interval   time.Duration // > 0: open loop
	durable    bool          // run with -data-dir and add the recovery phase
	maxPeriods int           // > 0: sessions end after this many replays and are followed by new ones
	gen        func(seed int64) []*traffic
}

func (sp serveSpec) workload() workload {
	return workload{
		name:  sp.name,
		serve: true,
		prepare: func(x *runCtx) (*prepared, error) {
			p := &prepared{traffics: sp.gen(x.seed)}
			dataDir := ""
			if sp.durable {
				var err error
				if dataDir, err = os.MkdirTemp(x.tmp, "wal-"); err != nil {
					return nil, err
				}
			}
			d, err := newDaemon(x.bin, dataDir)
			if err != nil {
				return nil, err
			}
			if _, err := d.start(); err != nil {
				return nil, err
			}
			p.daemon = d
			return p, d.waitReady()
		},
		measure: sp.measure,
	}
}

func (sp serveSpec) measure(x *runCtx, p *prepared) (*outcome, error) {
	d := p.daemon
	// The reference pass: untraced, before the timed run, which it checks.
	refs := make([]*reference, len(p.traffics))
	out := &outcome{}
	// A durable workload's passes append to a log of their own, as its
	// sessions do; each pass gets a fresh directory under the run's scratch
	// directory, which is removed when the run ends.
	walDir := func() (string, error) {
		if !sp.durable {
			return "", nil
		}
		return os.MkdirTemp(x.tmp, "pass-wal-")
	}
	for i, tr := range p.traffics {
		dir, err := walDir()
		if err != nil {
			return nil, err
		}
		ref, err := reenact(tr, i, nil, dir)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
		out.sessions = append(out.sessions, summarize(fmt.Sprintf("%s/%d/%s", sp.name, i, tr.lifeguard), ref))
	}

	// The timed run.
	var phases []*phase
	var errs []error
	streamed := p.traffics
	window := time.Duration(x.seconds * float64(time.Second))
	if sp.durable {
		// The third traffic is the recovery phase's victim; the phase takes
		// a few seconds of its own, which come out of the window.
		streamed = p.traffics[:2]
		window = window * 6 / 10
	}
	if sp.sequential {
		for i := range streamed {
			ph, err := runSessions(d, x.clk, streamed[i:i+1], refs[i:i+1], window/time.Duration(len(streamed)), sp.interval, sp.maxPeriods)
			if ph == nil {
				return nil, err
			}
			errs = append(errs, err)
			phases = append(phases, ph)
		}
	} else {
		ph, err := runSessions(d, x.clk, streamed, refs, window, sp.interval, sp.maxPeriods)
		if ph == nil {
			return nil, err
		}
		errs = append(errs, err)
		phases = append(phases, ph)
	}
	// Read the daemon's own accounts before the recovery phase kills it.
	peak, err := procStatusMB(d.cmd.Process.Pid, "VmHWM")
	if err != nil {
		return nil, err
	}
	scraped, err := d.scrape()
	if err != nil {
		return nil, err
	}
	var recovery []float64
	if sp.durable {
		samples, ph, err := runVictim(d, x.clk, p.traffics[2], refs[2])
		if ph == nil {
			return nil, err
		}
		errs = append(errs, err)
		recovery = samples
		out.attempted += ph.attempted
		out.failed += ph.failed
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, err)
		out.broken = true
	}
	if err := p.release(); err != nil {
		return nil, err
	}

	// End to end: the median over each phase's slices, phases averaged.
	var parts []steady
	var total struct {
		wall, serverCPU, clientCPU float64
		events, epochs             int
		lat, late                  []float64
	}
	for _, ph := range phases {
		parts = append(parts, summarizeSlices(ph.slices()))
		a, b := ph.first(), ph.last()
		total.wall += float64(b.at-a.at) / 1e9
		total.events += b.events - a.events
		total.epochs += b.epochs - a.epochs
		total.serverCPU += b.server - a.server
		total.clientCPU += b.self - a.self
		total.lat = append(total.lat, ph.lat...)
		total.late = append(total.late, ph.late...)
		out.attempted += ph.attempted
		out.failed += ph.failed
	}
	out.timedWall = total.wall
	out.e2e = combine(parts).e2e()
	if !x.traced {
		return out, nil
	}
	mevents := float64(total.events) / 1e6
	lat := sortedCopy(total.lat)
	sessions := float64(phases[0].sessions)

	// The traced passes, after the timed run and on the same inputs.
	L := newLayers()
	out.layers = L.m
	for i, tr := range p.traffics {
		dir, err := walDir()
		if err != nil {
			return nil, err
		}
		from := len(x.tracer.spans)
		traced, err := reenact(tr, i, x.tracer, dir)
		if err != nil {
			return nil, err
		}
		if sp.durable && i == 0 {
			// Session 0's log doubles as the input of the recovery kernels.
			if err := L.addStore(dir, tr, x.tmp); err != nil {
				return nil, err
			}
		}
		if got, want := traced.digest(), refs[i].digest(); got != want {
			return nil, fmt.Errorf("%s session %d: traced pass digest %s, untraced %s", sp.name, i, got, want)
		}
		L.addPass(tr.lifeguard, traced, refs[i], x.tracer.spans[from:])
	}
	// Feed-only loops; sessions of one traffic are alike, so one stands for
	// them unless every session has its own lifeguard.
	alone := p.traffics[:1]
	if sp.sequential {
		alone = p.traffics
	}
	for _, tr := range alone {
		if err := L.addFeedLoops(tr); err != nil {
			return nil, err
		}
	}
	if sp.durable {
		L.m["store.recovery_s"] = median(recovery)
	}
	L.finish()

	L.m["client.cpu_s_per_mevent"] = ratio(total.clientCPU, mevents)
	L.m["client.ack_p99_ms"] = percentile(lat, 0.99)
	L.m["client.ack_p999_ms"] = percentile(lat, 0.999)
	L.m["client.ack_samples"] = float64(len(lat))
	over := sort.SearchFloat64s(lat, ackLimitMs)
	L.m["client.ack_over_limit_share"] = ratio(float64(len(lat)-over+out.failed), float64(len(lat)+out.failed))
	L.m["client.gen_late_p99_ms"] = percentile(sortedCopy(total.late), 0.99)
	third := len(total.lat) / 3
	if third > 0 {
		// In arrival order per session; sessions are pooled one after another,
		// which is close enough for a drift over the whole run to show.
		L.m["client.backlog_growth_ms"] = mean(total.lat[len(total.lat)-third:]) - mean(total.lat[:third])
	}

	L.m["server.feed_us_per_epoch"] = ratio(scraped["butterfly_server_feed_ns_sum"], scraped["butterfly_server_feed_ns_count"]) / 1e3
	L.m["server.acquire_wait_share"] = ratio(scraped["butterfly_server_acquire_wait_ns_sum"], scraped["butterfly_server_feed_ns_sum"])
	L.m["server.gc_cycles"] = scraped["butterfly_gc_cycles"]
	L.m["server.gc_pause_ms"] = scraped["butterfly_gc_pause_ns"] / 1e6
	L.m["server.wal_fsyncs"] = scraped["butterfly_wal_fsyncs"]
	e2eUs := ratio(total.wall*1e6, ratio(float64(total.epochs), sessions))
	L.m["server.e2e_us_per_epoch"] = e2eUs
	L.m["server.residual_share"] = ratio(e2eUs-L.m["server.layers_sum_us_per_epoch"], e2eUs)
	L.m["server.peak_rss_mb"] = peak
	L.m["bench.timed_wall_s"] = total.wall
	return out, nil
}

// localSpec says what a local workload analyzes.
type localSpec struct {
	name    string
	kernels bool // report the sets kernel table with this workload
	gen     func(seed int64) ([]*localInput, error)
}

func (sp localSpec) workload() workload {
	return workload{
		name: sp.name,
		prepare: func(x *runCtx) (*prepared, error) {
			inputs, err := sp.gen(x.seed)
			return &prepared{inputs: inputs}, err
		},
		measure: sp.measure,
	}
}

func (sp localSpec) measure(x *runCtx, p *prepared) (*outcome, error) {
	refs := make([]*reference, len(p.inputs))
	out := &outcome{}
	for i, in := range p.inputs {
		ref, err := in.localReference(i, nil)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
		out.sessions = append(out.sessions, summarize(sp.name+"/"+in.name, ref))
	}
	lo, err := runLocal(p.inputs, refs, x.seconds)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = lo.attempted, lo.failed
	for _, r := range lo.rounds {
		out.timedWall += r.wall
	}
	out.e2e = summarizeSlices(lo.rounds).e2e()
	if !x.traced {
		return out, nil
	}
	lat := sortedCopy(lo.lat)
	peak, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}

	L := newLayers()
	out.layers = L.m
	streamBytes := 0
	for i, in := range p.inputs {
		from := len(x.tracer.spans)
		traced, err := in.localReference(i, x.tracer)
		if err != nil {
			return nil, err
		}
		if got, want := traced.digest(), refs[i].digest(); got != want {
			return nil, fmt.Errorf("%s: traced pass digest %s, untraced %s", in.name, got, want)
		}
		L.addPass(in.lifeguard, traced, refs[i], x.tracer.spans[from:])
		streamBytes += len(in.stream)
	}
	if tr := p.inputs[0].traffic; tr != nil {
		if err := L.addFeedLoops(tr); err != nil {
			return nil, err
		}
	}
	L.finish()
	L.m["trace.stream_bytes_per_event"] = ratio(float64(streamBytes), L.events)
	L.m["core.batch_events_per_s"] = lo.batchRate
	L.m["client.ack_p99_ms"] = percentile(lat, 0.99)
	L.m["client.ack_p999_ms"] = percentile(lat, 0.999)
	L.m["client.ack_samples"] = float64(len(lat))
	L.m["server.peak_rss_mb"] = peak
	L.m["bench.timed_wall_s"] = out.timedWall
	if sp.kernels {
		setsKernels(L.m)
	}
	return out, nil
}

// The seven workloads; BENCHMARK.json states why each exists. A period is
// kept to a few hundred thousand events so that the reference pass over it
// costs a fraction of a second in each of the driver's runs and a session
// overruns its window by one period at most.
var workloads = []workload{
	// Closed loop, clean addrcheck traffic in 32-event blocks: per-epoch
	// fixed cost dominates, per-event kernels do little.
	serveSpec{name: "small-epochs", gen: func(seed int64) []*traffic {
		return twoSessions(func(i int) *traffic { return genAccess(newRNG(seed, "small-epochs", i), 32, 2048, 0) })
	}}.workload(),

	// Open loop at a fixed rate per session, one 256-event-block epoch due
	// every 2.048 ms: the latency workload.
	serveSpec{name: "paced-clean", interval: pacedInterval,
		gen: func(seed int64) []*traffic {
			return twoSessions(func(i int) *traffic { return genAccess(newRNG(seed, "paced-clean", i), 256, 256, 0) })
		}}.workload(),

	// Closed loop over a durable store, then the recovery phase with a third
	// session as its victim.
	serveSpec{name: "durable-recover", durable: true, gen: func(seed int64) []*traffic {
		trs := twoSessions(func(i int) *traffic { return genAccess(newRNG(seed, "durable-recover", i), 256, 256, 0) })
		return append(trs, genAccess(newRNG(seed, "durable-recover", 2), 256, 256, 0))
	}}.workload(),

	// Half of all accesses are reported. Server and client hold every report
	// of a session until it ends, about 0.4 KB each on either side: sessions
	// of two replays keep an 8 s run from growing past a gigabyte.
	serveSpec{name: "report-flood", maxPeriods: 2, gen: func(seed int64) []*traffic {
		return twoSessions(func(i int) *traffic { return genAccess(newRNG(seed, "report-flood", i), 256, 256, 0.5) })
	}}.workload(),

	// One session at a time, each lifeguard for a third of the window.
	serveSpec{name: "lifeguard-mix", sequential: true, gen: func(seed int64) []*traffic {
		return []*traffic{
			genChurn(newRNG(seed, "lifeguard-mix", 0), "memcheck", 4096, 256, 256),
			genTaint(newRNG(seed, "lifeguard-mix", 1), 256, 128),
			genLockset(newRNG(seed, "lifeguard-mix", 2), 256, 64),
		}
	}}.workload(),

	// One stream over a 64 Ki-slot heap, analyzed by addrcheck and memcheck
	// in turn, by RunStream and by Driver.Run.
	localSpec{name: "churn-local", kernels: true, gen: func(seed int64) ([]*localInput, error) {
		addr, err := encodeTraffic("addrcheck", genChurn(newRNG(seed, "churn-local", 0), "addrcheck", 65536, 2048, 32))
		if err != nil {
			return nil, err
		}
		mem := *addr
		mem.name, mem.lifeguard = "memcheck", "memcheck"
		return []*localInput{addr, &mem}, nil
	}}.workload(),

	// The paper's evaluation mix.
	localSpec{name: "paper-apps", gen: genPaperApps}.workload(),
}

func twoSessions(gen func(i int) *traffic) []*traffic { return []*traffic{gen(0), gen(1)} }

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// A run sets its workload up at least minSetups times and goes on, up to
// maxSetups, while the set-ups have taken less than setupBudget together;
// setup_s is their median. The build of butterflyd is not part of a set-up:
// its time is the go tool's cache state, not the repository's.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// runWorkload sets w up several times, measures it on the last set-up and
// returns the outcome with setup_s filled in.
func runWorkload(w workload, x *runCtx) (*outcome, error) {
	var p *prepared
	defer func() { p.release() }()
	var setups []float64
	var spent time.Duration
	for i := 0; i < minSetups || i < maxSetups && spent < setupBudget; i++ {
		if err := p.release(); err != nil {
			return nil, err
		}
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var err error
		if p, err = w.prepare(x); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
	}
	out, err := w.measure(x, p)
	if err != nil {
		return nil, err
	}
	if err := p.release(); err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups)
	return out, nil
}

// scratchDir makes this run's scratch directory under the build directory.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}
