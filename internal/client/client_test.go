package client

import (
	"bufio"
	"bytes"
	"reflect"
	"sync"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/proto"
	"butterfly/internal/trace"
)

// newTestRun returns the run state readLoop and assemble work on, with no
// connection behind it.
func newTestRun() *run {
	r := &run{reports: map[int][]core.Report{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// report returns a distinguishable report for tick l.
func report(l int, code string) core.Report {
	return core.Report{Ref: trace.Ref{Epoch: l}, Code: code}
}

// TestAssembleOrdersTicksAndKeepsFirstReplay feeds readLoop the frames of a
// resumed session: ticks out of order, an empty tick, and a replay of tick 2
// whose copy differs. The Result lists the ticks in order and keeps the
// first copy of tick 2.
func TestAssembleOrdersTicksAndKeepsFirstReplay(t *testing.T) {
	var wire bytes.Buffer
	send := func(ft proto.FrameType, v any) {
		if err := proto.WriteJSON(&wire, ft, v); err != nil {
			t.Fatal(err)
		}
	}
	send(proto.FrameReports, proto.Reports{Epoch: 2, Reports: []core.Report{report(2, "first")}})
	send(proto.FrameReports, proto.Reports{Epoch: 0, Reports: []core.Report{report(0, "a"), report(0, "b")}})
	send(proto.FrameReports, proto.Reports{Epoch: 1})
	send(proto.FrameReports, proto.Reports{Epoch: 2, Reports: []core.Report{report(2, "replayed")}})
	send(proto.FrameDone, proto.Done{Epochs: 2, Events: 40, Reports: 3})

	r := newTestRun()
	r.readLoop(bufio.NewReader(&wire))
	if r.connErr != nil || r.fatalErr != nil {
		t.Fatalf("readLoop failed: conn %v, fatal %v", r.connErr, r.fatalErr)
	}
	res, err := r.assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Report{report(0, "a"), report(0, "b"), report(2, "first")}
	if !reflect.DeepEqual(res.Reports, want) {
		t.Fatalf("reports %v, want %v", res.Reports, want)
	}
	if res.Epochs != 2 || res.Events != 40 {
		t.Fatalf("Result counts %d epochs, %d events, want 2, 40", res.Epochs, res.Events)
	}
}

// TestAssembleRejectsShortCount checks that a Result short of Done's report
// total is an error, not a silently incomplete answer.
func TestAssembleRejectsShortCount(t *testing.T) {
	r := newTestRun()
	r.reports[0] = []core.Report{report(0, "a")}
	r.reports[3] = nil
	r.done = &proto.Done{Epochs: 3, Events: 12, Reports: 2}
	if res, err := r.assemble(); err == nil {
		t.Fatalf("assembled %d of 2 reports without an error", len(res.Reports))
	}
	r.done.Reports = 1
	if _, err := r.assemble(); err != nil {
		t.Fatalf("matching count rejected: %v", err)
	}
}

// TestEncodeRowRejectsMalformedRows checks encodeRow's row checks and that a
// good row decodes back to its events.
func TestEncodeRowRejectsMalformedRows(t *testing.T) {
	b0 := &epoch.Block{Events: []trace.Event{{Kind: trace.Read, Addr: 8, Size: 4}}}
	b1 := &epoch.Block{}
	if _, err := encodeRow(0, []*epoch.Block{b0}, 2); err == nil {
		t.Error("a row one block short was encoded")
	}
	if _, err := encodeRow(0, []*epoch.Block{b0, b1, b1}, 2); err == nil {
		t.Error("a row one block long was encoded")
	}
	if _, err := encodeRow(0, []*epoch.Block{b0, nil}, 2); err == nil {
		t.Error("a row with a nil block was encoded")
	}
	payload, err := encodeRow(5, []*epoch.Block{b0, b1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	num, row, err := proto.DecodeEpoch(payload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if num != 5 || !reflect.DeepEqual(row[0], b0.Events) || len(row[1]) != 0 {
		t.Fatalf("decoded epoch %d row %v", num, row)
	}
}
