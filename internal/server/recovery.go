package server

// Crash recovery (DESIGN.md §14): Listen scans the durable store before the
// listener accepts anyone and rebuilds every session that survived the
// previous process. Because the analysis is deterministic (the differential
// suites prove every way of feeding it equal), recovery is replay: each
// logged epoch frame runs through a fresh driver via exactly the pooled
// decode-and-feed path the live frame loop uses, regenerating the SOS, the
// window, and — crucially — the per-tick report buffer, so a resuming
// client is handed the same replay frames it would have gotten had the
// server never died.

import (
	"fmt"
	"time"

	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/store"
)

// recoverSessions rebuilds every recoverable session in the store directory
// and registers it detached, with the usual grace timer: a client that
// never returns must not pin the recovered checkpoint forever. Sessions
// whose replay fails (or that no longer fit the config) are discarded
// individually; only a store-level scan failure aborts startup.
func (s *Server) recoverSessions() error {
	recs, err := s.cfg.Store.Recover()
	if err != nil {
		return err
	}
	nsess, nepochs, recoveryNs := s.cfg.Store.Metrics()
	dropped := s.cfg.Obs.Counter(obs.MetricStoreRecoveryDropped)
	for _, rec := range recs {
		start := time.Now()
		sess, err := s.rebuildSession(rec)
		if err != nil {
			s.log.Warn("recovered session discarded", "session", rec.ID[:12],
				"trace", rec.Meta.TraceID, "err", err.Error())
			dropped.Inc()
			rec.Discard() //nolint:errcheck // best-effort GC of a dead dir
			continue
		}
		s.mu.Lock()
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			s.log.Warn("recovered session dropped: session limit reached",
				"session", sess.shortID, "limit", s.cfg.MaxSessions)
			dropped.Inc()
			s.cleanupSession(sess, true)
			continue
		}
		s.sessions[sess.id] = sess
		s.m.detached.Add(1)
		s.startEvictTimerLocked(sess)
		s.mu.Unlock()
		nsess.Inc()
		nepochs.Add(int64(rec.Epochs))
		recoveryNs.Observe(time.Since(start))
		s.log.Info("session recovered", "session", sess.shortID, "trace", sess.traceID,
			"lifeguard", sess.hello.Lifeguard, "epochs", rec.Epochs,
			"finished", sess.finished, "took", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// rebuildSession replays one recovered log through a fresh session. The
// stored snapshot cursor cross-checks the replay: if the regenerated
// report count or Done totals diverge from what the dead process durably
// recorded, determinism has been violated somewhere and the session is
// discarded rather than resumed into a lie.
func (s *Server) rebuildSession(rec *store.Recovered) (*session, error) {
	h := rec.Meta.Hello
	sess, rej := s.buildSession(h, rec.ID)
	if rej != nil {
		return nil, fmt.Errorf("%s: %s", rej.Code, rej.Reason)
	}
	sess.recovered = true
	discard := func(err error) (*session, error) {
		sess.inc.Close()
		sess.scope.Drop()
		return nil, err
	}
	err := rec.Replay(func(num int, payload []byte) error {
		blocks := sess.rows.Get(h.NumThreads)
		for t, b := range blocks {
			sess.evRow[t] = b.Events[:0]
		}
		gotNum, row, err := proto.DecodeEpochInto(payload, h.NumThreads, sess.evRow)
		if err != nil {
			return fmt.Errorf("epoch %d: %w", num, err)
		}
		for t, b := range blocks {
			b.Events = row[t]
		}
		if gotNum != sess.inc.NextEpoch() {
			return fmt.Errorf("epoch %d out of order (expected %d)", gotNum, sess.inc.NextEpoch())
		}
		sess.rb.Stamp(blocks)
		// The same containment the live feed path has: a lifeguard panic
		// while replaying a poisoned log must discard this one session,
		// never abort the whole recovery (and with it, the process start).
		reps, err, panicked := s.feedEpoch(sess, blocks)
		if panicked {
			return fmt.Errorf("lifeguard panicked at epoch %d: %w", gotNum, err)
		}
		if err != nil {
			return err
		}
		sess.recordReports(gotNum, reps)
		sess.epochs++
		return nil
	})
	if err != nil {
		return discard(fmt.Errorf("replay: %w", err))
	}
	if rec.HasSnapshot {
		sess.bytesIn = rec.Snapshot.BytesIn
		if sess.nreports < rec.Snapshot.Reports {
			return discard(fmt.Errorf("replay regenerated %d reports, cursor says >= %d",
				sess.nreports, rec.Snapshot.Reports))
		}
	}
	if rec.Finished {
		res, err, panicked := s.finishInc(sess)
		if panicked {
			return discard(fmt.Errorf("replay finish: lifeguard panicked: %w", err))
		}
		if err != nil {
			return discard(fmt.Errorf("replay finish: %w", err))
		}
		sess.recordReports(res.Epochs, res.Reports)
		sess.finished = true
		sess.done = proto.Done{Epochs: res.Epochs, Events: res.Events, Reports: sess.nreports}
		if sess.done != rec.Done {
			return discard(fmt.Errorf("replay diverged: Done %+v, logged %+v", sess.done, rec.Done))
		}
	}
	wal, err := rec.Resume(sess.scope)
	if err != nil {
		// The checkpoint is good even if the log can't reopen; keep the
		// session, withdraw the durability promise.
		sess.degraded.Store(true)
		s.cfg.Store.DegradedCounter().Inc()
		s.log.Error("recovered session wal not resumable; session is in-memory only",
			"session", sess.shortID, "err", err.Error())
	} else {
		sess.wal = wal
	}
	sess.flight.Record(obs.FlightNote, -1, 0, 0,
		fmt.Sprintf("recovered: %d epochs replayed", rec.Epochs))
	return sess, nil
}
