package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"butterfly/internal/apps"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/machine"
	"butterfly/internal/obs"
	"butterfly/internal/trace"
)

// localInput is one encoded stream of a local workload and the lifeguard
// that analyzes it. The system under test is the in-process path of
// `butterfly-run -stream`: trace.NewStreamReader → epoch.NewStreamRows →
// Driver.RunStream, with that command's default driver.
type localInput struct {
	name      string
	lifeguard string
	heapBase  uint64
	stream    []byte
	events    int
	epochs    int
	// grid and traffic are set when the stream is synthetic: the workload then
	// also runs Driver.Run over the grid and the feed-only loops over the rows.
	grid    *epoch.Grid
	traffic *traffic
}

func (in *localInput) driver(reg *obs.Registry) (*core.Driver, error) {
	return defaultDriver(in.lifeguard, in.heapBase, reg)
}

// encodeTraffic lays a synthetic stream — the prologue and one period — out
// as a grid and encodes it in the BFLYS1 streaming format.
func encodeTraffic(name string, tr *traffic) (*localInput, error) {
	g := &epoch.Grid{NumThreads: nThreads}
	rb := epoch.NewRowBuilder(nThreads)
	for _, rows := range [][]row{tr.prologue, tr.period} {
		for _, r := range rows {
			blocks := r.blocks()
			rb.Stamp(blocks)
			g.Blocks = append(g.Blocks, blocks)
		}
	}
	in, err := encodeGrid(name, tr.lifeguard, 0, g)
	if err == nil {
		in.grid, in.traffic = g, tr
	}
	return in, err
}

func encodeGrid(name, lifeguard string, heapBase uint64, g *epoch.Grid) (*localInput, error) {
	var buf bytes.Buffer
	if err := epoch.WriteStream(&buf, g); err != nil {
		return nil, err
	}
	return &localInput{name: name, lifeguard: lifeguard, heapBase: heapBase,
		stream: buf.Bytes(), events: g.TotalEvents(), epochs: g.NumEpochs()}, nil
}

// paperAppOps is the per-thread operation target of each application analog:
// about a third of a million events per app, so a pass over all six takes
// around half a second.
const paperAppOps = 65536

// genPaperApps runs the six internal/apps analogs on the simulated machine
// with a heartbeat every 2048 instructions per thread and encodes each trace.
func genPaperApps(seed int64) ([]*localInput, error) {
	var out []*localInput
	for _, app := range apps.All {
		p, err := app.Build(apps.Params{Threads: nThreads, TargetOps: paperAppOps, Seed: seed})
		if err != nil {
			return nil, err
		}
		cfg := machine.Table1Config(nThreads)
		cfg.Seed = seed
		cfg.HeartbeatH = 2048
		res, err := machine.Run(p, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		g, err := epoch.ChunkByHeartbeat(res.Trace)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.Name, err)
		}
		in, err := encodeGrid(app.Name, "addrcheck", cfg.HeapBase, g)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// pulledRows is a stream's row source that stamps each pull. The driver
// asks for epoch l+1 once it has taken epoch l in, so the gap between two
// pulls is one epoch's turn through decode and analysis: the local
// workloads' counterpart of a served epoch's Ack latency.
type pulledRows struct {
	*epoch.StreamRows
	pulls []time.Time
}

func (p *pulledRows) NextEpoch() ([]*epoch.Block, error) {
	p.pulls = append(p.pulls, time.Now())
	return p.StreamRows.NextEpoch()
}

// runStream is one pass: decode and analyze the whole stream from scratch.
func (in *localInput) runStream() (*core.Result, []time.Time, error) {
	sr, err := trace.NewStreamReader(bytes.NewReader(in.stream))
	if err != nil {
		return nil, nil, err
	}
	d, err := in.driver(nil)
	if err != nil {
		return nil, nil, err
	}
	src := &pulledRows{StreamRows: epoch.NewStreamRows(sr)}
	res, err := d.RunStream(src)
	return res, src.pulls, err
}

// localReference analyzes the stream once on one goroutine, pulling rows
// and feeding them by hand so each call can be a span, and returns the
// reports every timed pass must reproduce.
func (in *localInput) localReference(session int, tc *tracer) (*reference, error) {
	sr, err := trace.NewStreamReader(bytes.NewReader(in.stream))
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	d, err := in.driver(reg)
	if err != nil {
		return nil, err
	}
	inc, err := d.NewIncremental(nThreads)
	if err != nil {
		return nil, err
	}
	defer inc.Close()
	src := epoch.NewStreamRows(sr)
	inc.SetRowRecycler(src.RecycleRow)
	ref := &reference{lifeguard: in.lifeguard, reg: reg, input: sha256.New()}
	ref.input.Write(in.stream)
	start := time.Now()
	for num := 0; ; num++ {
		parent := tc.open(spanEpoch, -1, session, num)
		sp := tc.open(spanStreamDecode, parent, session, num)
		blocks, err := src.NextEpoch()
		tc.close(sp)
		if err == io.EOF {
			if tc != nil {
				tc.spans = tc.spans[:parent] // the pull that found the end is no epoch
			}
			break
		}
		if err != nil {
			return nil, err
		}
		sp = tc.open(spanFeed, parent, session, num)
		_, err = inc.FeedEpoch(blocks)
		tc.close(sp)
		tc.close(parent)
		if err != nil {
			return nil, err
		}
		if m := inc.MemEstimate(); m > ref.stateBytesPeak {
			ref.stateBytesPeak = m
		}
	}
	res, err := inc.Finish()
	if err != nil {
		return nil, err
	}
	ref.wall = time.Since(start)
	ref.pro, ref.proEpochs, ref.events = res.Reports, res.Epochs, res.Events
	if res.Events != in.events || res.Epochs != in.epochs {
		return nil, fmt.Errorf("%s: analyzed %d events in %d epochs, encoded %d in %d",
			in.name, res.Events, res.Epochs, in.events, in.epochs)
	}
	return ref, nil
}

// localOutcome is the timed part of a local workload.
type localOutcome struct {
	rounds    []slice // one per pass over every input
	lat       []float64
	attempted int
	failed    int
	batchRate float64 // events/s of Driver.Run, when an input has a grid
}

// runLocal makes one warm-up pass over every input, then whole rounds of
// measured passes until seconds have gone by, and checks every pass against
// its input's reference.
func runLocal(inputs []*localInput, refs []*reference, seconds float64) (*localOutcome, error) {
	out := &localOutcome{}
	check := func(i int, res *core.Result) {
		out.attempted += res.Epochs
		if err := refs[i].matches(res, 0); err != nil {
			out.failed += res.Epochs
			fmt.Fprintf(os.Stderr, "%s: pass differs from the reference: %v\n", inputs[i].name, err)
		}
	}
	for _, in := range inputs {
		if _, _, err := in.runStream(); err != nil {
			return nil, err
		}
	}
	for spent := 0.0; spent < seconds; {
		var round slice
		for i, in := range inputs {
			cpu0, t0 := selfCPU(), time.Now()
			res, pulls, err := in.runStream()
			if err != nil {
				return nil, err
			}
			round.wall += time.Since(t0).Seconds()
			round.cpu += selfCPU() - cpu0
			round.events += res.Events
			round.epochs += res.Epochs
			for j := 1; j < len(pulls); j++ {
				round.lat = append(round.lat, float64(pulls[j].Sub(pulls[j-1]))/1e6)
			}
			check(i, res)
		}
		var err error
		if round.rssMB, err = procStatusMB(os.Getpid(), "VmRSS"); err != nil {
			return nil, err
		}
		spent += round.wall
		out.rounds = append(out.rounds, round)
		out.lat = append(out.lat, round.lat...)
	}
	// Driver.Run over the materialised grid: analysis only, no decode.
	var batchWall float64
	batchEvents := 0
	for i, in := range inputs {
		if in.grid == nil {
			continue
		}
		d, err := in.driver(nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res := d.Run(in.grid)
		batchWall += time.Since(t0).Seconds()
		batchEvents += res.Events
		check(i, res)
	}
	out.batchRate = ratio(float64(batchEvents), batchWall)
	return out, nil
}
