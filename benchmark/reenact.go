package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
	"butterfly/internal/trace"
)

// span is one timed call into a layer, as the traced run records it. Start
// and End are nanoseconds since the benchmark began; Parent is the index of
// the epoch span that caused it, -1 for an epoch span itself.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Session int    `json:"session"`
	Epoch   int    `json:"epoch"`
}

// Span names: one per call the server's frame loop makes for an epoch, in
// the loop's order. spanEncode is the client's share; spanStreamDecode
// replaces the wire spans in the local workloads.
const (
	spanEpoch         = "epoch"
	spanEncode        = "client.encode"
	spanFrame         = "proto.frame"
	spanDecode        = "proto.decode"
	spanFeed          = "core.feed"
	spanAppend        = "store.append"
	spanReportsEncode = "proto.reports_encode"
	spanReportsDecode = "proto.reports_decode"
	spanAck           = "proto.ack"
	spanStreamDecode  = "trace.stream_decode"
)

// tracer collects spans in memory; a nil tracer records nothing and costs
// one nil check per call, which is how the untraced pass of the same
// pipeline runs.
type tracer struct {
	clk   clock
	spans []span
}

// open starts a span and returns its index, for close and for its children.
func (tr *tracer) open(name string, parent, session, epochNum int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Start: tr.clk.now(), Parent: parent, Session: session, Epoch: epochNum})
	return len(tr.spans) - 1
}

func (tr *tracer) close(i int) {
	if tr != nil {
		tr.spans[i].End = tr.clk.now()
	}
}

// reference is what one in-process pass over a session's prologue and one
// period produced: the reports every timed replay is checked against, and
// the counts the per-layer metrics are computed from.
type reference struct {
	lifeguard       string
	proEpochs       int
	perEpochs       int
	events          int
	pro, per        []core.Report // reports of the prologue's and the period's ticks
	wall            time.Duration
	wireBytes       int
	stateBytesPeak  int64
	reg             *obs.Registry
	walBytes        int64
	walAppendEpochs int
	input           hash.Hash // over the encoded input, epoch by epoch
}

func (r *reference) epochs() int  { return r.proEpochs + r.perEpochs }
func (r *reference) reports() int { return len(r.pro) + len(r.per) }

// digest is the SHA-256 of the reference's ordered reports.
func (r *reference) digest() string {
	h := sha256.New()
	var buf []byte
	for _, part := range [][]core.Report{r.pro, r.per} {
		for i := range part {
			buf = appendReportBytes(buf[:0], &part[i], 0)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendReportBytes appends a canonical encoding of rep with its epoch
// shifted back by shift: every field, fixed width, strings length-prefixed.
func appendReportBytes(b []byte, rep *core.Report, shift int) []byte {
	for _, v := range [...]uint64{
		uint64(rep.Ref.Epoch - shift), uint64(rep.Ref.Thread), uint64(rep.Ref.Index),
		uint64(rep.Ev.Kind), rep.Ev.Addr, rep.Ev.Size, rep.Ev.Src1, rep.Ev.Src2, rep.Ev.Cycle,
		uint64(len(rep.Code)), uint64(len(rep.Detail)),
	} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = append(b, rep.Code...)
	return append(b, rep.Detail...)
}

// matches reports whether got is what a session of the reference's prologue
// followed by whole replays of its period must produce: the prologue's
// reports, then the period's once per replay with their epochs moved on.
func (r *reference) matches(got *core.Result, periods int) error {
	wantEpochs := r.proEpochs + periods*r.perEpochs
	if got.Epochs != wantEpochs {
		return fmt.Errorf("%d epochs, want %d", got.Epochs, wantEpochs)
	}
	if want := len(r.pro) + periods*len(r.per); len(got.Reports) != want {
		return fmt.Errorf("%d reports, want %d", len(got.Reports), want)
	}
	for i := range r.pro {
		if got.Reports[i] != r.pro[i] {
			return fmt.Errorf("report %d is %v, want %v", i, got.Reports[i], r.pro[i])
		}
	}
	i := len(r.pro)
	for k := 0; k < periods; k++ {
		for j := range r.per {
			want := r.per[j]
			want.Ref.Epoch += k * r.perEpochs
			if got.Reports[i] != want {
				return fmt.Errorf("report %d (replay %d) is %v, want %v", i, k, got.Reports[i], want)
			}
			i++
		}
	}
	return nil
}

// walSessionID names the traced pass's log; the store wants 32 hex digits.
const walSessionID = "0123456789abcdef0123456789abcdef"

// defaultDriver configures a driver the way a default butterflyd does
// (buildSession in internal/server/session.go) and `butterfly-run -stream`
// too: parallel, one shard per processor.
func defaultDriver(lifeguard string, heapBase uint64, reg *obs.Registry) (*core.Driver, error) {
	lg, err := registry.New(lifeguard, registry.Options{HeapBase: heapBase})
	if err != nil {
		return nil, err
	}
	return &core.Driver{LG: lg, Parallel: true, Shards: runtime.GOMAXPROCS(0), Obs: reg}, nil
}

// rowDecoder decodes Epoch payloads the way serveSession does: into rows
// taken from a pool the driver hands them back to, stamped with their place
// in the grid.
type rowDecoder struct {
	rows  epoch.RowPool
	rb    *epoch.RowBuilder
	evRow [][]trace.Event
}

func newRowDecoder() *rowDecoder {
	return &rowDecoder{rb: epoch.NewRowBuilder(nThreads), evRow: make([][]trace.Event, nThreads)}
}

func (d *rowDecoder) decode(payload []byte) ([]*epoch.Block, error) {
	blocks := d.rows.Get(nThreads)
	for t, b := range blocks {
		d.evRow[t] = b.Events[:0]
	}
	_, decoded, err := proto.DecodeEpochInto(payload, nThreads, d.evRow)
	if err != nil {
		return nil, err
	}
	for t, b := range blocks {
		b.Events = decoded[t]
	}
	d.rb.Stamp(blocks)
	return blocks, nil
}

// createLog starts the write-ahead log of a session that begins at epoch 0.
func createLog(st *store.Store, lifeguard string, reg *obs.Registry) (*store.Log, error) {
	hello := proto.Hello{Proto: proto.Version, Lifeguard: lifeguard, NumThreads: nThreads, AckedEpoch: -1}
	return st.Create(walSessionID, store.Meta{Session: walSessionID, Hello: hello}, reg)
}

// reenact runs tr's prologue and one period through the sequence of calls
// serveSession makes for each epoch, on one goroutine and in the server's
// order, with the client's encode in front:
//
//	EncodeEpoch → WriteFrame/FrameReader.Read → DecodeEpochInto+Stamp →
//	FeedEpoch → AppendEpoch (durable only) → Reports encode/decode →
//	EncodeAck/DecodeAck
//
// Frames cross an in-memory buffer instead of TCP. With a tracer every call
// is a span under its epoch's span; without one the same code runs untimed.
// The driver always has a registry, as butterflyd's does. A walDir makes the
// pass append every epoch to a log there under the batched policy, the way a
// durable session does.
func reenact(tr *traffic, session int, tc *tracer, walDir string) (*reference, error) {
	reg := obs.New()
	d, err := defaultDriver(tr.lifeguard, 0, reg)
	if err != nil {
		return nil, err
	}
	inc, err := d.NewIncrementalTrimmed(nThreads)
	if err != nil {
		return nil, err
	}
	defer inc.Close()
	dec := newRowDecoder()
	inc.SetRowRecycler(dec.rows.Put)

	var log *store.Log
	if walDir != "" {
		st, err := store.Open(store.Options{Dir: walDir, Fsync: store.FsyncBatched})
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if log, err = createLog(st, tr.lifeguard, reg); err != nil {
			return nil, err
		}
		defer log.Close()
	}

	var pipe bytes.Buffer
	bw := bufio.NewWriter(&pipe)
	fr := proto.NewFrameReader(bufio.NewReader(&pipe))
	// roundTrip sends one frame through the pipe, as a connection would.
	roundTrip := func(t proto.FrameType, payload []byte) ([]byte, error) {
		if err := proto.WriteFrame(bw, t, payload); err != nil {
			return nil, err
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		got, back, err := fr.Read()
		if err != nil {
			return nil, err
		}
		if got != t {
			return nil, fmt.Errorf("frame type %v came back as %v", t, got)
		}
		return back, nil
	}

	ref := &reference{lifeguard: tr.lifeguard, proEpochs: len(tr.prologue), perEpochs: len(tr.period), reg: reg, input: sha256.New()}
	nreports := 0
	start := time.Now()
	num := 0
	for part, rws := range [][]row{tr.prologue, tr.period} {
		for _, r := range rws {
			parent := tc.open(spanEpoch, -1, session, num)

			sp := tc.open(spanEncode, parent, session, num)
			payload, err := proto.EncodeEpoch(num, r)
			if err != nil {
				return nil, err
			}
			tc.close(sp)

			sp = tc.open(spanFrame, parent, session, num)
			wire, err := roundTrip(proto.FrameEpoch, payload)
			if err != nil {
				return nil, err
			}
			tc.close(sp)
			ref.wireBytes += len(wire) + 5

			sp = tc.open(spanDecode, parent, session, num)
			blocks, err := dec.decode(wire)
			if err != nil {
				return nil, err
			}
			tc.close(sp)

			sp = tc.open(spanFeed, parent, session, num)
			reps, err := inc.FeedEpoch(blocks)
			if err != nil {
				return nil, err
			}
			tc.close(sp)
			nreports += len(reps)

			if log != nil {
				sp = tc.open(spanAppend, parent, session, num)
				err := log.AppendEpoch(wire, store.Snapshot{Acked: num, Epochs: int64(num + 1), Reports: nreports})
				if err != nil {
					return nil, err
				}
				tc.close(sp)
				ref.walAppendEpochs++
			}

			var back proto.Reports
			if len(reps) > 0 {
				sp = tc.open(spanReportsEncode, parent, session, num)
				body, err := proto.Reports{Epoch: num, Reports: reps}.MarshalJSON()
				if err != nil {
					return nil, err
				}
				body, err = roundTrip(proto.FrameReports, body)
				if err != nil {
					return nil, err
				}
				tc.close(sp)
				sp = tc.open(spanReportsDecode, parent, session, num)
				if err := proto.DecodeReports(body, &back); err != nil {
					return nil, err
				}
				tc.close(sp)
			}

			sp = tc.open(spanAck, parent, session, num)
			ackBody, err := roundTrip(proto.FrameAck, proto.EncodeAck(num))
			if err != nil {
				return nil, err
			}
			if got, err := proto.DecodeAck(ackBody); err != nil || got != num {
				return nil, fmt.Errorf("ack %d came back as %d: %v", num, got, err)
			}
			tc.close(sp)
			tc.close(parent)
			ref.input.Write(payload)

			// What the client would assemble is what came back over the wire.
			if part == 0 {
				ref.pro = append(ref.pro, back.Reports...)
			} else {
				ref.per = append(ref.per, back.Reports...)
			}
			ref.events += r.events()
			if m := inc.MemEstimate(); m > ref.stateBytesPeak {
				ref.stateBytesPeak = m
			}
			num++
		}
	}
	res, err := inc.Finish()
	if err != nil {
		return nil, err
	}
	ref.wall = time.Since(start)
	if len(res.Reports) != 0 {
		return nil, fmt.Errorf("%s traffic is not quiet at its end: the trailing tick produced %d reports", tr.lifeguard, len(res.Reports))
	}
	if res.Events != ref.events || res.Epochs != num {
		return nil, fmt.Errorf("driver counted %d events in %d epochs, fed %d in %d", res.Events, res.Epochs, ref.events, num)
	}
	if log != nil {
		ref.walBytes = reg.Counter(obs.MetricWALBytes).Value()
	}
	return ref, nil
}
