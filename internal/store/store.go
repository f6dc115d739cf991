package store

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"butterfly/internal/failpoint"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
)

// Fsync selects the durability/throughput trade-off of the WAL
// (DESIGN.md §14). Every policy write()s each epoch record to the segment
// file before its Ack is sent, so a process crash (SIGKILL) never loses
// acknowledged work in any mode; the policies differ only in what a kernel
// crash or power loss can take.
type Fsync int

const (
	// FsyncBatched (the default) group-commits: every BatchEvery appends
	// it *initiates* writeback (sync_file_range on Linux; a full fsync
	// elsewhere) without stalling the Ack, and fsyncs for real at every
	// segment seal and at Close. Power-loss exposure is bounded by the
	// open segment's unwritten-back tail; throughput is near in-memory.
	FsyncBatched Fsync = iota
	// FsyncPerAck fsyncs before every Ack: an acknowledged epoch survives
	// even power loss. The strictest and slowest policy.
	FsyncPerAck
	// FsyncOff never fsyncs explicitly; the OS flushes on its own schedule.
	// Process crashes are still fully recoverable.
	FsyncOff
)

// ParseFsync parses the -fsync flag values: "batched", "per-ack", "off".
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "batched", "":
		return FsyncBatched, nil
	case "per-ack":
		return FsyncPerAck, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want per-ack, batched or off)", s)
}

func (f Fsync) String() string {
	switch f {
	case FsyncPerAck:
		return "per-ack"
	case FsyncOff:
		return "off"
	}
	return "batched"
}

// Options configures a Store. Only Dir is required.
type Options struct {
	// Dir is the data directory; one subdirectory per live session.
	Dir string
	// Fsync is the durability policy (default FsyncBatched).
	Fsync Fsync
	// BatchEvery is the append count between writeback kicks under
	// FsyncBatched. 0 → 32.
	BatchEvery int
	// SnapshotEvery is the epoch count between snapshot records. 0 → 256.
	SnapshotEvery int
	// SegmentBytes caps a segment file; the log rotates past it. 0 → 4 MiB.
	SegmentBytes int64
	// Obs receives store-level recovery metrics; per-session WAL metrics go
	// through the scope handed to Create/Resume. nil → no telemetry.
	Obs *obs.Registry
	// Log receives structured store events. nil → discard.
	Log *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.BatchEvery <= 0 {
		o.BatchEvery = 32
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 256
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Log == nil {
		o.Log = obs.DiscardLogger()
	}
	return o
}

// Meta is a session's immutable identity, written once as the first record
// of its first segment: everything recovery needs to rebuild the lifeguard
// and re-admit the session before a single epoch is replayed.
type Meta struct {
	Session       string      `json:"session"`
	TraceID       string      `json:"trace_id,omitempty"`
	Hello         proto.Hello `json:"hello"`
	CreatedUnixNs int64       `json:"created_unix_ns"`
}

// Snapshot is the progress cursor at a checkpoint boundary. It deliberately
// holds no lifeguard state — the analysis state is rebuilt by deterministic
// replay of the epoch records — just the counters replay cannot see
// (non-epoch wire bytes) and the emitted-report cursor used to cross-check
// that replay regenerated exactly the reports the crashed process emitted.
type Snapshot struct {
	// Acked is the last tick durably appended (and therefore ack-able).
	Acked int `json:"acked"`
	// Epochs is the count of epochs fed (Acked+1 while streaming).
	Epochs int64 `json:"epochs"`
	// BytesIn is the session's wire-byte quota usage.
	BytesIn int64 `json:"bytes_in"`
	// Reports is the emitted-report cursor: reports streamed to the client
	// so far. Replay must regenerate at least this many by the same tick.
	Reports int `json:"reports"`
}

// Store is the durable-session manager: a locked data directory holding one
// write-ahead log per live session. All methods are safe for concurrent use
// by different sessions; a single session's Log is single-writer, like the
// session itself.
type Store struct {
	o    Options
	lock *os.File
	m    storeMetrics
}

type storeMetrics struct {
	recoveredSessions, recoveredEpochs, recoveryDropped *obs.Counter
	recoveryNs                                          *obs.Histogram
	degraded                                            *obs.Counter
}

// Open locks and prepares the data directory. A second butterflyd opening
// the same directory is refused (flock), since two writers would interleave
// segments arbitrarily.
func Open(o Options) (*Store, error) {
	o = o.withDefaults()
	if o.Dir == "" {
		return nil, fmt.Errorf("store: no data directory")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(o.Dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: %s is locked by another butterflyd: %w", o.Dir, err)
	}
	return &Store{
		o:    o,
		lock: lock,
		m: storeMetrics{
			recoveredSessions: o.Obs.Counter(obs.MetricStoreRecoveredSessions),
			recoveredEpochs:   o.Obs.Counter(obs.MetricStoreRecoveredEpochs),
			recoveryDropped:   o.Obs.Counter(obs.MetricStoreRecoveryDropped),
			recoveryNs:        o.Obs.Histogram(obs.MetricStoreRecoveryNs),
			degraded:          o.Obs.Counter(obs.MetricWALDegraded),
		},
	}, nil
}

// Close releases the directory lock. Session logs are closed by their
// owners (server cleanup).
func (st *Store) Close() error {
	if st.lock == nil {
		return nil
	}
	err := st.lock.Close()
	st.lock = nil
	return err
}

// Dir returns the data directory.
func (st *Store) Dir() string { return st.o.Dir }

// Fsync returns the configured durability policy.
func (st *Store) Fsync() Fsync { return st.o.Fsync }

// DegradedCounter bumps once per session dropped to in-memory mode; the
// server owns the decision, the store owns the series.
func (st *Store) DegradedCounter() *obs.Counter { return st.m.degraded }

// walMetrics are the per-session WAL handles, resolved from the session's
// obs scope so every write also feeds the process-wide series.
type walMetrics struct {
	appends, bytes, fsyncs, snapshots *obs.Counter
	fsyncNs                           *obs.Histogram
}

func newWALMetrics(scope *obs.Registry) walMetrics {
	return walMetrics{
		appends:   scope.Counter(obs.MetricWALAppends),
		bytes:     scope.Counter(obs.MetricWALBytes),
		fsyncs:    scope.Counter(obs.MetricWALFsyncs),
		snapshots: scope.Counter(obs.MetricWALSnapshots),
		fsyncNs:   scope.Histogram(obs.MetricWALFsyncNs),
	}
}

// Log is one session's write-ahead log. Single-writer: exactly one
// goroutine appends at a time (the attached connection handler), mirroring
// session ownership. Every method fails sticky: after the first disk error
// the log refuses further work and the server degrades the session.
type Log struct {
	st  *Store
	dir string
	id  string

	seq  int // current segment number
	f    *os.File
	bw   *bufio.Writer
	size int64 // bytes written to the current segment

	sinceSync int
	sinceSnap int

	scratch [recHdrLen + recTrailerLen]byte
	err     error // sticky first failure

	m walMetrics
}

func segName(seq int) string { return fmt.Sprintf("%08d.wal", seq) }

// Create opens a fresh session log and writes its meta record. The scope
// (may be nil) labels the log's telemetry. Only the per-ack policy fsyncs
// here (record and parent directory): under batched, a power loss that
// predates the first segment seal costs the whole young session — the
// documented bounded-regression contract — while kill -9 safety needs only
// the flush.
func (st *Store) Create(id string, meta Meta, scope *obs.Registry) (*Log, error) {
	if err := failpoint.Inject(failpoint.SiteStoreCreate); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	dir := filepath.Join(st.o.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l := &Log{st: st, dir: dir, id: id, m: newWALMetrics(scope)}
	if err := l.openSegment(1); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encoding meta: %w", err)
	}
	if err := l.append(recMeta, payload); err != nil {
		return nil, err
	}
	if err := l.bw.Flush(); err != nil {
		return nil, l.fail(err)
	}
	if st.o.Fsync == FsyncPerAck {
		if err := l.sync(); err != nil {
			return nil, err
		}
		if err := syncDir(st.o.Dir); err != nil {
			return nil, l.fail(err)
		}
	}
	return l, nil
}

func (l *Log) openSegment(seq int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(seq)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return l.fail(err)
	}
	l.seq, l.f, l.size = seq, f, 0
	// store.write faults (short writes, errors) hit the segment file under
	// the buffer, so an injected torn record looks exactly like a real one:
	// flushed partially, then failed. The stub build returns f unchanged.
	w := failpoint.Writer(failpoint.SiteStoreWrite, f)
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(w, 64<<10)
	} else {
		l.bw.Reset(w)
	}
	var hdr [segHdrLen]byte
	copy(hdr[:], segMagic)
	hdr[segHdrLen-1] = segVersion
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return l.fail(err)
	}
	l.size += int64(segHdrLen)
	return nil
}

// append writes one record into the buffered segment (no flush).
func (l *Log) append(typ byte, payload []byte) error {
	if l.err != nil {
		return l.err
	}
	if err := failpoint.Inject(failpoint.SiteStoreAppend); err != nil {
		return l.fail(err)
	}
	n, err := appendRecord(l.bw, l.scratch[:], typ, payload)
	if err != nil {
		return l.fail(err)
	}
	l.size += int64(n)
	l.m.appends.Inc()
	l.m.bytes.Add(int64(n))
	return nil
}

// fail records the first error and poisons the log.
func (l *Log) fail(err error) error {
	if err == nil {
		return nil
	}
	if l.err == nil {
		l.err = fmt.Errorf("store: session %s wal: %w", shortID(l.id), err)
	}
	return l.err
}

// Err returns the sticky failure, if any.
func (l *Log) Err() error { return l.err }

func (l *Log) sync() error {
	if l.err != nil {
		return l.err
	}
	if err := failpoint.Inject(failpoint.SiteStoreFsync); err != nil {
		return l.fail(err)
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.fail(err)
	}
	l.m.fsyncs.Inc()
	l.m.fsyncNs.Observe(time.Since(start))
	l.sinceSync = 0
	return nil
}

// AppendEpoch makes one epoch tick durable: the raw Epoch frame payload is
// appended (a snapshot record and a segment rotation ride along when due),
// the segment is flushed to the file, and the fsync policy is applied. On
// nil return the caller may send Ack(snap.Acked). The payload is not
// retained. Allocation-free in the steady state (snapshots and rotations
// are amortized; the alloc gate pins this down).
func (l *Log) AppendEpoch(payload []byte, snap Snapshot) error {
	if err := l.append(recEpoch, payload); err != nil {
		return err
	}
	l.sinceSnap++
	if l.sinceSnap >= l.st.o.SnapshotEvery {
		if err := l.appendSnapshot(snap); err != nil {
			return err
		}
	}
	if l.size >= l.st.o.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	switch l.st.o.Fsync {
	case FsyncPerAck:
		return l.sync()
	case FsyncBatched:
		// Group commit: every BatchEvery appends, *initiate* writeback
		// (sync_file_range on Linux) instead of stalling the Ack on a full
		// fsync. Real fsyncs happen at segment seal and Close, so a power
		// loss costs at most the unwritten-back tail of the open segment —
		// kill -9 safety never depended on fsync at all (the flush above
		// put the record in the page cache before the Ack leaves).
		l.sinceSync++
		if l.sinceSync >= l.st.o.BatchEvery {
			if err := kickWriteback(l.f); err != nil {
				return l.fail(err)
			}
			l.m.fsyncs.Inc()
			l.sinceSync = 0
		}
	}
	return nil
}

func (l *Log) appendSnapshot(snap Snapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return l.fail(err)
	}
	if err := l.append(recSnapshot, payload); err != nil {
		return err
	}
	l.sinceSnap = 0
	l.m.snapshots.Inc()
	return nil
}

// AppendFinish marks the session's analysis complete. Called after Finish
// computed the Done; the caller may send the Done frame on nil return.
// Only per-ack fsyncs: losing a finish record to power loss recovers the
// session as merely unfinished, and the resuming client replays its End to
// the same deterministic Done.
func (l *Log) AppendFinish(done proto.Done, snap Snapshot) error {
	if err := l.appendSnapshot(snap); err != nil {
		return err
	}
	payload, err := json.Marshal(done)
	if err != nil {
		return l.fail(err)
	}
	if err := l.append(recFinish, payload); err != nil {
		return err
	}
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	if l.st.o.Fsync == FsyncPerAck {
		return l.sync()
	}
	return nil
}

// rotate seals the current segment (flush, and sync unless the policy is
// off) and opens the next one. A sealed segment is never opened for writing
// again: it keeps its cursor records, and recovery takes the latest cursor
// in the valid prefix from whichever segment holds it.
func (l *Log) rotate() error {
	if err := failpoint.Inject(failpoint.SiteStoreRotate); err != nil {
		return l.fail(err)
	}
	if err := l.bw.Flush(); err != nil {
		return l.fail(err)
	}
	if l.st.o.Fsync != FsyncOff {
		if err := l.sync(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return l.fail(err)
	}
	l.f = nil
	return l.openSegment(l.seq + 1)
}

// Close flushes, syncs (policy permitting) and closes the log, leaving the
// session directory on disk for recovery — the shutdown path.
func (l *Log) Close() error {
	if l.f == nil {
		return l.err
	}
	err := l.bw.Flush()
	if err == nil && l.st.o.Fsync != FsyncOff {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return l.fail(err)
}

// Remove closes the log and deletes the session directory — eviction,
// completion, and degrade all garbage-collect this way.
func (l *Log) Remove() error {
	if l.f != nil {
		l.bw.Flush()
		l.f.Close()
		l.f = nil
	}
	return os.RemoveAll(l.dir)
}

// syncDir fsyncs a directory so a freshly created entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// shortID trims a session token to the 12-hex-digit label logs use.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// isSessionDirName reports whether name looks like a session token (hex,
// 32 bytes) — anything else in the data dir is ignored by recovery.
func isSessionDirName(name string) bool {
	if len(name) != 32 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// recoveredSeg is one segment of a recovered session: its path and the byte
// length of its valid record prefix (everything past it is a torn tail).
type recoveredSeg struct {
	seq   int
	path  string
	valid int64
}

// Recovered is one session found in the store directory: its identity, the
// progress described by the log's valid prefix, and handles to replay and
// then resume it. The epochs themselves stay on disk until Replay streams
// them — recovery memory is bounded by one segment, not the session.
type Recovered struct {
	ID   string
	Meta Meta
	// Epochs counts the epoch records in the valid prefix; replay feeds
	// exactly this many ticks, [0, Epochs).
	Epochs int
	// Snapshot is the latest snapshot record (HasSnapshot guards the zero
	// value): the counters replay cannot reconstruct.
	Snapshot    Snapshot
	HasSnapshot bool
	// Finished/Done are set when a finish record survived: the session
	// completed analysis and owes its client only the Done (and report
	// replay) on resume.
	Finished bool
	Done     proto.Done

	st   *Store
	segs []recoveredSeg
}

// Recover scans the store directory and returns every recoverable session,
// in no particular order. Directories that hold no valid meta record are
// deleted (they cannot be resumed and would leak); a torn or corrupt tail
// inside an otherwise valid log just bounds the valid prefix, exactly the
// crash artifact the WAL is designed around.
func (st *Store) Recover() ([]*Recovered, error) {
	entries, err := os.ReadDir(st.o.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []*Recovered
	for _, e := range entries {
		if !e.IsDir() || !isSessionDirName(e.Name()) {
			continue
		}
		rec, err := st.recoverSession(e.Name())
		if err != nil {
			st.o.Log.Warn("store: dropping unrecoverable session dir",
				"session", shortID(e.Name()), "err", err.Error())
			st.m.recoveryDropped.Inc()
			os.RemoveAll(filepath.Join(st.o.Dir, e.Name()))
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// recoverSession scans one session directory's segments in order, stopping
// at the first torn or corrupt record; everything before it is the durable
// truth.
func (st *Store) recoverSession(id string) (*Recovered, error) {
	dir := filepath.Join(st.o.Dir, id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if n, err := fmt.Sscanf(e.Name(), "%08d.wal", &seq); n == 1 && err == nil && seq > 0 {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("no segments")
	}
	sort.Ints(seqs)
	rec := &Recovered{ID: id, st: st}
	sawMeta := false
	nextEpoch := 0
	stop := false
	for i, seq := range seqs {
		if stop || seq != seqs[0]+i {
			// Past a stop point (or a numbering gap, which means the prefix
			// ends here): later segments are unreachable state, dropped when
			// the session resumes.
			break
		}
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		valid, scanErr := scanSegment(data, func(typ byte, payload []byte) error {
			switch typ {
			case recMeta:
				if sawMeta {
					return fmt.Errorf("duplicate meta record")
				}
				if err := json.Unmarshal(payload, &rec.Meta); err != nil {
					return fmt.Errorf("meta record: %w", err)
				}
				sawMeta = true
			case recEpoch:
				num, n := binary.Uvarint(payload)
				if n <= 0 || int(num) != nextEpoch {
					return fmt.Errorf("epoch record %d out of order (expected %d)", num, nextEpoch)
				}
				nextEpoch++
			case recSnapshot:
				var s Snapshot
				if err := json.Unmarshal(payload, &s); err != nil {
					return fmt.Errorf("snapshot record: %w", err)
				}
				rec.Snapshot, rec.HasSnapshot = s, true
			case recFinish:
				if err := json.Unmarshal(payload, &rec.Done); err != nil {
					return fmt.Errorf("finish record: %w", err)
				}
				rec.Finished = true
			}
			return nil
		})
		if scanErr != nil {
			// Record the clean prefix of this segment and stop the scan:
			// a torn tail is routine; anything else is logged by Recover's
			// caller context via the warn below.
			if scanErr != errTorn {
				st.o.Log.Warn("store: wal scan stopped early",
					"session", shortID(id), "segment", seq, "offset", valid, "err", scanErr.Error())
			}
			stop = true
		}
		if valid > segHdrLen || seq == seqs[0] {
			rec.segs = append(rec.segs, recoveredSeg{seq: seq, path: path, valid: int64(valid)})
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("no meta record in valid prefix")
	}
	if rec.Meta.Session != id {
		return nil, fmt.Errorf("meta session %s does not match directory", shortID(rec.Meta.Session))
	}
	rec.Epochs = nextEpoch
	return rec, nil
}

// Replay streams the valid prefix's epoch payloads, in order, to fn. The
// payload aliases an internal buffer valid only during the call — exactly
// the contract of the wire FrameReader, so the server's pooled decode path
// replays unchanged.
func (r *Recovered) Replay(fn func(epochNum int, payload []byte) error) error {
	for _, seg := range r.segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if int64(len(data)) > seg.valid {
			data = data[:seg.valid]
		}
		_, err = scanSegment(data, func(typ byte, payload []byte) error {
			if typ != recEpoch {
				return nil
			}
			num, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("store: bad epoch record")
			}
			return fn(int(num), payload)
		})
		if err != nil && err != errTorn && err != errCorrupt {
			return err
		}
	}
	return nil
}

// Resume reopens the log for appending after a successful replay: the torn
// tail (if any) is truncated away, segments past the valid prefix are
// deleted, and appends continue in a fresh segment so no pre-crash bytes
// are ever overwritten. The scope labels the resumed log's telemetry.
func (r *Recovered) Resume(scope *obs.Registry) (*Log, error) {
	last := r.segs[len(r.segs)-1]
	if fi, err := os.Stat(last.path); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	} else if fi.Size() > last.valid {
		if err := os.Truncate(last.path, last.valid); err != nil {
			return nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	dir := filepath.Join(r.st.o.Dir, r.ID)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var seq int
		if n, err := fmt.Sscanf(e.Name(), "%08d.wal", &seq); n == 1 && err == nil && seq > last.seq {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	l := &Log{st: r.st, dir: dir, id: r.ID, m: newWALMetrics(scope)}
	if err := l.openSegment(last.seq + 1); err != nil {
		return nil, err
	}
	if err := l.bw.Flush(); err != nil {
		return nil, l.fail(err)
	}
	if r.st.o.Fsync != FsyncOff {
		if err := l.sync(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Discard deletes a recovered session that could not be rebuilt (replay
// error, rejected config).
func (r *Recovered) Discard() error {
	return os.RemoveAll(filepath.Join(r.st.o.Dir, r.ID))
}

// Metrics returns the store-level recovery counters for the server to bump
// as sessions are rebuilt.
func (st *Store) Metrics() (sessions, epochs *obs.Counter, recoveryNs *obs.Histogram) {
	return st.m.recoveredSessions, st.m.recoveredEpochs, st.m.recoveryNs
}
