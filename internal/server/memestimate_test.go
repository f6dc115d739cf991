package server

import (
	"testing"
	"unsafe"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/trace"
)

// TestMemEstimateCoversReplayReports pins the replay term of a session's
// memory estimate: after report-heavy epochs it must cover at least what the
// replay buffer really pins — every report's struct and its Detail bytes —
// or -session-mem-budget and -mem-budget undercount exactly the sessions
// that hold the most.
func TestMemEstimateCoversReplayReports(t *testing.T) {
	const T, perThread = 2, 4096
	b := trace.NewBuilder(T)
	for th := 0; th < T; th++ {
		b.T(trace.ThreadID(th))
		base := uint64(0x10000 + th*0x100000)
		for s := uint64(0); s < 64; s++ {
			b.Alloc(base+s*128, 64)
		}
		// Every other read lands in the gap behind a slot.
		for i := uint64(0); i < perThread; i++ {
			b.Read(base+(i%64)*128+(i%2)*64, 8)
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 256)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Driver{LG: addrcheck.New(0)}
	inc, err := d.NewIncrementalTrimmed(T)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	s := &Server{}
	sess := &session{inc: inc}
	for l := 0; l < g.NumEpochs(); l++ {
		reps, err := inc.FeedEpoch(g.Blocks[l])
		if err != nil {
			t.Fatalf("epoch %d: %v", l, err)
		}
		sess.recordReports(l, reps)
		if abort, _ := s.noteMemUsage(sess); abort != "" {
			t.Fatalf("epoch %d: no budget is set, yet the session was aborted: %s", l, abort)
		}
	}

	var pinned int64
	for _, frame := range sess.replay {
		for _, r := range frame.Reports {
			pinned += int64(unsafe.Sizeof(r)) + int64(len(r.Detail))
		}
	}
	if sess.nreports < perThread/2 {
		t.Fatalf("the workload is not report-heavy: %d reports over %d events", sess.nreports, T*perThread)
	}
	if est := sess.memEst.Load(); est < pinned {
		t.Fatalf("estimate %d bytes is below the %d bytes %d replay reports pin", est, pinned, sess.nreports)
	}
}
