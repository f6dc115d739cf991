package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
)

// layerAcc accumulates what the traced passes and feed loops of a workload
// measured, and turns it into the per-layer metrics. Sums run over every
// session of the workload, so a metric is the workload's mean.
type layerAcc struct {
	m map[string]float64

	// Traced passes.
	events, epochs, reports   float64
	spanNs                    map[string]float64 // total duration by span name
	spans, untracedWall       float64
	wireBytes                 float64
	walBytes, walEpochs       float64
	walEvents                 float64
	stateBytesPeak, sosPeak   float64
	firstNs, secondNs, sosNs  float64 // stage histogram sums of the drivers' registries
	barrierNs, shardNs, tasks float64
	feedByLifeguard           map[string][2]float64 // lifeguard → {feed ns, events}

	// Feed-only loops.
	loopEvents, loopEpochs            float64
	serialWall, parallelWall, regWall float64
	mallocs                           float64
}

func newLayers() *layerAcc {
	return &layerAcc{m: map[string]float64{}, spanNs: map[string]float64{}, feedByLifeguard: map[string][2]float64{}}
}

// addPass takes in one traced pass, the untraced pass over the same input,
// and the spans the traced pass recorded.
func (L *layerAcc) addPass(lifeguard string, traced, untraced *reference, spans []span) {
	L.events += float64(traced.events)
	L.epochs += float64(traced.epochs())
	L.reports += float64(traced.reports())
	L.spans += float64(len(spans))
	L.untracedWall += untraced.wall.Seconds()
	L.wireBytes += float64(traced.wireBytes)
	if traced.walAppendEpochs > 0 {
		L.walBytes += float64(traced.walBytes)
		L.walEpochs += float64(traced.walAppendEpochs)
		L.walEvents += float64(traced.events)
	}
	var feed float64
	for _, sp := range spans {
		L.spanNs[sp.Name] += float64(sp.End - sp.Start)
		if sp.Name == spanFeed {
			feed += float64(sp.End - sp.Start)
		}
	}
	f := L.feedByLifeguard[lifeguard]
	L.feedByLifeguard[lifeguard] = [2]float64{f[0] + feed, f[1] + float64(traced.events)}

	if v := float64(traced.stateBytesPeak); v > L.stateBytesPeak {
		L.stateBytesPeak = v
	}
	reg := traced.reg
	if v := float64(reg.Gauge(obs.MetricSOSPeak).Value()); v > L.sosPeak {
		L.sosPeak = v
	}
	L.firstNs += float64(reg.Histogram(obs.MetricFirstPassNs).Sum())
	L.secondNs += float64(reg.Histogram(obs.MetricSecondPassNs).Sum())
	L.sosNs += float64(reg.Histogram(obs.MetricSOSUpdateNs).Sum())
	L.barrierNs += float64(reg.Histogram(obs.MetricBarrierWaitNs).Sum())
	L.shardNs += float64(reg.Histogram(obs.MetricShardTaskNs).Sum())
	L.tasks += float64(reg.Counter(obs.MetricShardTasks).Value())
}

// feedLoop runs every row of tr through FeedEpoch alone — no codec, no
// frames — and returns the wall time and the heap objects allocated.
func feedLoop(tr *traffic, parallel bool, shards int, reg *obs.Registry) (wall float64, mallocs uint64, err error) {
	d, err := defaultDriver(tr.lifeguard, 0, reg)
	if err != nil {
		return 0, 0, err
	}
	d.Parallel, d.Shards = parallel, shards
	inc, err := d.NewIncrementalTrimmed(nThreads)
	if err != nil {
		return 0, 0, err
	}
	defer inc.Close()
	var rows [][]*epoch.Block
	for _, part := range [][]row{tr.prologue, tr.period} {
		for _, r := range part {
			rows = append(rows, r.blocks())
		}
	}
	rb := epoch.NewRowBuilder(nThreads)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, blocks := range rows {
		rb.Stamp(blocks)
		if _, err := inc.FeedEpoch(blocks); err != nil {
			return 0, 0, err
		}
	}
	if _, err := inc.Finish(); err != nil {
		return 0, 0, err
	}
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, nil
}

// addFeedLoops runs tr through three feed-only loops: the server's driver
// without a registry, the same with one, and the single-threaded baseline
// (Parallel off, one shard).
func (L *layerAcc) addFeedLoops(tr *traffic) error {
	par, mallocs, err := feedLoop(tr, true, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return err
	}
	withReg, _, err := feedLoop(tr, true, runtime.GOMAXPROCS(0), obs.New())
	if err != nil {
		return err
	}
	serial, _, err := feedLoop(tr, false, 1, nil)
	if err != nil {
		return err
	}
	L.parallelWall += par
	L.regWall += withReg
	L.serialWall += serial
	L.mallocs += float64(mallocs)
	L.loopEvents += float64(rowEvents(tr.prologue) + rowEvents(tr.period))
	L.loopEpochs += float64(len(tr.prologue) + len(tr.period))
	return nil
}

// perAckEpochs is how many epochs the per-ack fsync probe appends. Each is
// a real fsync of the host's disk, so the figure is informational.
const perAckEpochs = 32

// addStore measures the store on its own: recovery of the log the traced
// pass wrote into walDir (scan, then replay through a fresh driver by the
// server's pooled decode path), and appends under the per-ack policy.
func (L *layerAcc) addStore(walDir string, tr *traffic, tmp string) error {
	st, err := store.Open(store.Options{Dir: walDir})
	if err != nil {
		return err
	}
	defer st.Close()
	t0 := time.Now()
	recs, err := st.Recover()
	if err != nil {
		return err
	}
	L.m["store.recover_scan_ms"] = float64(time.Since(t0)) / 1e6
	if len(recs) != 1 {
		return fmt.Errorf("store recovered %d sessions from the traced pass's log, want 1", len(recs))
	}
	d, err := defaultDriver(tr.lifeguard, 0, obs.New())
	if err != nil {
		return err
	}
	inc, err := d.NewIncrementalTrimmed(nThreads)
	if err != nil {
		return err
	}
	defer inc.Close()
	dec := newRowDecoder()
	inc.SetRowRecycler(dec.rows.Put)
	events := 0
	t0 = time.Now()
	err = recs[0].Replay(func(num int, payload []byte) error {
		blocks, err := dec.decode(payload)
		if err != nil {
			return err
		}
		for _, b := range blocks {
			events += len(b.Events)
		}
		_, err = inc.FeedEpoch(blocks)
		return err
	})
	if err != nil {
		return err
	}
	L.m["store.replay_ns_per_event"] = ratio(float64(time.Since(t0)), float64(events))

	dir, err := os.MkdirTemp(tmp, "per-ack-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pa, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncPerAck})
	if err != nil {
		return err
	}
	defer pa.Close()
	log, err := createLog(pa, tr.lifeguard, nil)
	if err != nil {
		return err
	}
	defer log.Close()
	var spent time.Duration
	for num, r := range tr.period[:perAckEpochs] {
		payload, err := proto.EncodeEpoch(num, r)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := log.AppendEpoch(payload, store.Snapshot{Acked: num, Epochs: int64(num + 1)}); err != nil {
			return err
		}
		spent += time.Since(t0)
	}
	L.m["store.append_fsync_us_per_epoch"] = float64(spent) / perAckEpochs / 1e3
	return nil
}

// spanCost measures what recording one span costs, in seconds: the traced
// passes' overhead is that times their spans. The wall times of a traced and
// an untraced pass differ by ±10 % from run to run on the defining host,
// which drowns an overhead of well under 1 %, so their difference is not
// used.
func spanCost() float64 {
	const n = 1 << 16
	tc := &tracer{clk: clock{t0: time.Now()}}
	start := time.Now()
	for i := 0; i < n; i++ {
		tc.close(tc.open(spanFeed, -1, 0, i))
	}
	return time.Since(start).Seconds() / n
}

// serverPathSpans are the calls serveSession makes on its own goroutine for
// one epoch; their sum is what the layers account for of an epoch's time.
var serverPathSpans = []string{spanFrame, spanDecode, spanFeed, spanAppend, spanReportsEncode, spanAck}

// finish computes the metrics that derive from the accumulated sums.
func (L *layerAcc) finish() {
	m, ns := L.m, L.spanNs
	m["client.encode_ns_per_event"] = ratio(ns[spanEncode], L.events)
	m["proto.frame_us_per_epoch"] = ratio(ns[spanFrame], L.epochs) / 1e3
	m["proto.decode_ns_per_event"] = ratio(ns[spanDecode], L.events)
	m["proto.ack_us_per_epoch"] = ratio(ns[spanAck], L.epochs) / 1e3
	m["proto.wire_bytes_per_event"] = ratio(L.wireBytes, L.events)
	m["proto.reports_encode_ns_per_report"] = ratio(ns[spanReportsEncode], L.reports)
	m["proto.reports_decode_ns_per_report"] = ratio(ns[spanReportsDecode], L.reports)
	m["proto.reports_per_event"] = ratio(L.reports, L.events)

	m["core.feed_us_per_epoch"] = ratio(ns[spanFeed], L.epochs) / 1e3
	m["core.feed_ns_per_event"] = ratio(ns[spanFeed], L.events)
	m["core.first_pass_ns_per_event"] = ratio(L.firstNs, L.events)
	m["core.second_pass_ns_per_event"] = ratio(L.secondNs, L.events)
	m["core.sos_update_us_per_epoch"] = ratio(L.sosNs, L.epochs) / 1e3
	m["core.barrier_wait_share"] = ratio(L.barrierNs, L.barrierNs+L.firstNs+L.secondNs)
	m["core.shard_task_us"] = ratio(L.shardNs, L.tasks) / 1e3
	m["core.shard_tasks_per_epoch"] = ratio(L.tasks, L.epochs)
	m["core.state_bytes_peak"] = L.stateBytesPeak
	m["core.sos_size_peak"] = L.sosPeak
	for lg, f := range L.feedByLifeguard {
		m["lifeguard."+lg+".ns_per_event"] = ratio(f[0], f[1])
	}

	m["trace.stream_decode_ns_per_event"] = ratio(ns[spanStreamDecode], L.events)
	m["store.append_us_per_epoch"] = ratio(ns[spanAppend], L.walEpochs) / 1e3
	m["store.wal_bytes_per_event"] = ratio(L.walBytes, L.walEvents)

	sum := 0.0
	for _, name := range serverPathSpans {
		sum += ns[name]
	}
	m["server.layers_sum_us_per_epoch"] = ratio(sum, L.epochs) / 1e3

	m["core.serial_events_per_s"] = ratio(L.loopEvents, L.serialWall)
	m["core.parallel_speedup"] = ratio(L.serialWall, L.parallelWall)
	m["core.allocs_per_epoch"] = ratio(L.mallocs, L.loopEpochs)
	m["obs.registry_overhead_share"] = ratio(L.regWall-L.parallelWall, L.parallelWall)
	m["bench.span_overhead_share"] = ratio(L.spans*spanCost(), L.untracedWall)
}
