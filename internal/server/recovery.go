package server

// Crash recovery (DESIGN.md §14): Listen scans the durable store before the
// listener accepts anyone and rebuilds every session that survived the
// previous process by replaying its log through the per-epoch step
// (step.go). The analysis is deterministic over its epoch stream, so a
// resuming client is handed the replay frames it would have gotten had the
// server never died, and the budgets see the session as the dead one did.

import (
	"fmt"
	"time"

	"butterfly/internal/obs"
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

// rebuildSession replays one recovered log through a fresh session: each
// Epoch frame, and the End frame of a finished session, is charged and
// applied as the live loop did. The snapshot cursor and Done cross-check the
// replay: a byte count, report count or Done that falls short of or diverges
// from what the dead process durably recorded means determinism was
// violated, and the session is discarded rather than resumed into a lie.
func (s *Server) rebuildSession(rec *store.Recovered) (*session, error) {
	h := rec.Meta.Hello
	h.TraceID = rec.Meta.TraceID // the ID the session was logged under
	sess, rej := s.buildSession(h, rec.ID)
	if rej != nil {
		return nil, fmt.Errorf("%s: %s", rej.Code, rej.Reason)
	}
	sess.recovered = true
	err := rec.Replay(func(num int, payload []byte) error {
		sess.charge(payload)
		if _, _, v := s.applyEpoch(sess, payload, nil); v != nil {
			return fmt.Errorf("epoch record %d: %s: %s", num, v.Code, v.Reason)
		}
		return nil
	})
	if err == nil && rec.Finished {
		sess.charge(nil) // the End frame
		if _, v := s.applyEnd(sess); v != nil {
			err = fmt.Errorf("finish: %s: %s", v.Code, v.Reason)
		} else if sess.done != rec.Done {
			err = fmt.Errorf("diverged: Done %+v, logged %+v", sess.done, rec.Done)
		}
	}
	if err == nil && rec.HasSnapshot {
		if sess.bytesIn < rec.Snapshot.BytesIn {
			err = fmt.Errorf("regenerated %d wire bytes, cursor says >= %d", sess.bytesIn, rec.Snapshot.BytesIn)
		} else if sess.nreports < rec.Snapshot.Reports {
			err = fmt.Errorf("regenerated %d reports, cursor says >= %d", sess.nreports, rec.Snapshot.Reports)
		}
	}
	if err != nil {
		s.cleanupSession(sess, false) // no log is open yet: Resume comes last
		return nil, fmt.Errorf("replay: %w", err)
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
