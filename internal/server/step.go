package server

// The per-epoch session step (DESIGN.md §10, §14). The live frame loop and
// boot replay apply every Epoch frame through applyEpoch and the End frame
// through applyEnd, so a recovered session is rebuilt by the code that built
// it: replay regenerates the reports, counters, WAL cursor and memory
// estimate the live loop produced. Only the live loop admits frames against
// the quotas and writes Reports and Acks; only replay cross-checks the log.
// This file makes the package's only FeedEpoch and Finish calls (`make
// lint`'s step-check).

import (
	"fmt"
	"time"
	"unsafe"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/failpoint"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
)

// charge counts one inbound frame against the session's wire totals: its
// size on the wire (4-byte length, type byte, payload) is the unit of the
// -max-session-bytes quota.
func (sess *session) charge(payload []byte) {
	n := int64(len(payload)) + 5
	sess.sm.framesIn.Inc()
	sess.sm.bytesIn.Add(n)
	sess.bytesIn += n
}

// applyEpoch applies one Epoch frame payload: decode into the session's
// next row, the tick on an analysis slot, its reports into the replay
// buffer, the frame into the WAL, and a fresh memory estimate. beforeWait,
// when non-nil, runs only if every analysis slot is taken, just before the
// tick waits for one. It returns the epoch number and the tick's reports,
// or the verdict that aborts the session.
func (s *Server) applyEpoch(sess *session, payload []byte, beforeWait func()) (int, []core.Report, *proto.ErrorMsg) {
	num, blocks, err := sess.decodeEpoch(payload)
	if err != nil {
		return 0, nil, &proto.ErrorMsg{Code: "protocol", Reason: err.Error()}
	}
	sess.epochs++
	var reps []core.Report
	if v := s.tick(sess, num, beforeWait, func() (err error) {
		// server.feed is the feeding-goroutine quarantine drill; error
		// policies panic too, since the feed's error channel is the driver's.
		if err := failpoint.Inject(failpoint.SiteServerFeed); err != nil {
			panic(err)
		}
		reps, err = sess.inc.FeedEpoch(blocks)
		return err
	}); v != nil {
		return num, nil, v
	}
	sess.recordReports(num, reps)
	// Durability point: the frame is appended (and, per the fsync policy,
	// synced) before its Ack can go out, so every Ack the client sees names
	// a tick a restarted server replays; appending after the feed keeps
	// poison frames out of the log. A write failure degrades the session
	// and the Ack still goes out. Replay runs before the log is resumed, so
	// sess.wal is nil there.
	if sess.durable() {
		if err := sess.wal.AppendEpoch(payload, sess.cursor(num)); err != nil {
			s.degradeSession(sess, err)
		}
	}
	s.refreshMemEstimate(sess)
	return num, reps, nil
}

// applyEnd applies the End frame: the trailing Finish tick, whose reports
// are keyed one past the last epoch, then Done and the WAL's finish record.
func (s *Server) applyEnd(sess *session) ([]core.Report, *proto.ErrorMsg) {
	var res *core.Result
	if v := s.tick(sess, sess.inc.NextEpoch(), nil, func() (err error) {
		res, err = sess.inc.Finish()
		return err
	}); v != nil {
		return nil, v
	}
	sess.recordReports(res.Epochs, res.Reports)
	sess.finished = true
	sess.done = proto.Done{Epochs: res.Epochs, Events: res.Events, Reports: sess.nreports}
	sess.flight.Record(obs.FlightNote, res.Epochs, 0, 0, "finished")
	if sess.durable() {
		if err := sess.wal.AppendFinish(sess.done, sess.cursor(res.Epochs-1)); err != nil {
			s.degradeSession(sess, err)
		}
	}
	s.refreshMemEstimate(sess)
	return res.Reports, nil
}

// tick runs one analysis tick (fn) on an analysis slot, timing it into the
// feed and slot-wait histograms and the flight ring. A lifeguard panic —
// boxed onto this goroutine by the driver (core.WorkerPanic), or erupting
// right here — quarantines the session instead of crashing the process:
// the session is marked, the worker stack goes to the log, and the verdict
// says so, while every sibling session keeps running untouched.
func (s *Server) tick(sess *session, num int, beforeWait func(), fn func() error) (v *proto.ErrorMsg) {
	t0 := time.Now()
	if !s.tryAcquire() {
		if beforeWait != nil {
			beforeWait()
		}
		s.acquire()
	}
	wait := time.Since(t0)
	defer func() {
		r := recover()
		s.release()
		dur := time.Since(t0)
		sess.sm.waitNs.Observe(wait)
		sess.sm.feedNs.Observe(dur)
		sess.flight.Record(obs.FlightEpoch, num, dur, wait, "")
		if r == nil {
			return
		}
		sess.quarantined.Store(true)
		s.m.quarantined.Inc()
		reason := fmt.Sprintf("panic: %v", r)
		if wp, ok := r.(*core.WorkerPanic); ok {
			reason = wp.Error()
			if len(wp.Stack) > 0 {
				s.log.Error("lifeguard panic (worker stack follows)", "session", sess.shortID,
					"trace", sess.traceID, "panic", fmt.Sprint(wp.Val), "stack", string(wp.Stack))
			}
		}
		v = &proto.ErrorMsg{Code: "quarantined", Reason: "lifeguard panicked; session isolated: " + reason}
	}()
	if err := fn(); err != nil {
		return &proto.ErrorMsg{Code: "internal", Reason: err.Error()}
	}
	return nil
}

// decodeEpoch turns one Epoch frame payload into the session's next row: it
// decodes into a pooled row's event backings, checks that the epoch is the
// one the driver expects next, and stamps the row.
func (sess *session) decodeEpoch(payload []byte) (int, []*epoch.Block, error) {
	blocks := sess.rows.Get(sess.hello.NumThreads)
	for t, b := range blocks {
		sess.evRow[t] = b.Events[:0]
	}
	num, row, err := proto.DecodeEpochInto(payload, sess.hello.NumThreads, sess.evRow)
	if err != nil {
		return 0, nil, fmt.Errorf("bad epoch frame: %w", err)
	}
	for t, b := range blocks {
		b.Events = row[t]
	}
	if num != sess.inc.NextEpoch() {
		return 0, nil, fmt.Errorf("epoch %d out of order (expected %d)", num, sess.inc.NextEpoch())
	}
	sess.rb.Stamp(blocks)
	return num, blocks, nil
}

// recordReports appends one tick's reports to the replay buffer.
func (sess *session) recordReports(tick int, reps []core.Report) {
	if len(reps) == 0 {
		return
	}
	sess.replay = append(sess.replay, proto.Reports{Epoch: tick, Reports: reps})
	sess.nreports += len(reps)
	for i := range reps {
		sess.replayBytes += int64(unsafe.Sizeof(reps[i])) + int64(len(reps[i].Detail))
	}
}

// cursor is the WAL progress cursor once epoch acked is acknowledged: the
// counters replay cannot read off the epoch records, which recovery
// cross-checks against what it regenerated.
func (sess *session) cursor(acked int) store.Snapshot {
	return store.Snapshot{Acked: acked, Epochs: sess.epochs, BytesIn: sess.bytesIn, Reports: sess.nreports}
}

// refreshMemEstimate re-reads the session's memory estimate after a tick
// and folds the change into the server total that the budgets read.
func (s *Server) refreshMemEstimate(sess *session) {
	est := sess.inc.MemEstimate() + sess.replayBytes
	s.m.memEstimate.Set(s.memTotal.Add(est - sess.memEst.Swap(est)))
}
