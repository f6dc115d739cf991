package store

// White-box coverage of the WAL: record/segment codec roundtrips, crash
// artifacts (torn tails, bit flips), rotation and sealed-segment
// immutability, the recovery scan, resume-after-crash appends, and the directory lock. The fuzz
// harness in fuzz_test.go hammers the same scanner with adversarial bytes;
// the server-level recovery differential lives in internal/server.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"butterfly/internal/proto"
)

// testID returns a well-formed 32-hex session token, distinct per n.
func testID(n int) string {
	return fmt.Sprintf("%032x", 0xabc0+n)
}

func testMeta(id string) Meta {
	return Meta{
		Session: id,
		TraceID: "trace-" + id[:6],
		Hello: proto.Hello{
			Proto:      proto.Version,
			Lifeguard:  "addrcheck",
			NumThreads: 2,
			AckedEpoch: -1,
		},
		CreatedUnixNs: 12345,
	}
}

// epochPayload builds an Epoch-frame-shaped payload: uvarint number plus an
// arbitrary body (the store never parses the body; the server does).
func epochPayload(num int, body []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(num))]...), body...)
}

func openStore(t *testing.T, o Options) *Store {
	t.Helper()
	st, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// appendEpochs appends n epochs (numbers start..start+n-1) with
// deterministic bodies and returns the payloads.
func appendEpochs(t *testing.T, l *Log, start, n int) [][]byte {
	t.Helper()
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		num := start + i
		p := epochPayload(num, bytes.Repeat([]byte{byte(num)}, 16+num%7))
		if err := l.AppendEpoch(p, Snapshot{Acked: num, Epochs: int64(num + 1)}); err != nil {
			t.Fatalf("append epoch %d: %v", num, err)
		}
		out = append(out, p)
	}
	return out
}

// recoverOne recovers the store directory and requires exactly one session.
func recoverOne(t *testing.T, st *Store) *Recovered {
	t.Helper()
	recs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(recs))
	}
	return recs[0]
}

// replayAll collects every replayed (num, payload) pair.
func replayAll(t *testing.T, rec *Recovered) [][]byte {
	t.Helper()
	var got [][]byte
	next := 0
	err := rec.Replay(func(num int, payload []byte) error {
		if num != next {
			t.Fatalf("replayed epoch %d, want %d", num, next)
		}
		next++
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLogRoundtrip(t *testing.T) {
	st := openStore(t, Options{Dir: t.TempDir(), SnapshotEvery: 4})
	id := testID(1)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := appendEpochs(t, l, 0, 10)
	done := proto.Done{Epochs: 10, Events: 640, Reports: 3}
	if err := l.AppendFinish(done, Snapshot{Acked: 9, Epochs: 10, BytesIn: 999, Reports: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec := recoverOne(t, st)
	if rec.ID != id || rec.Meta != testMeta(id) {
		t.Fatalf("recovered meta %+v", rec.Meta)
	}
	if rec.Epochs != 10 {
		t.Fatalf("recovered %d epochs, want 10", rec.Epochs)
	}
	if !rec.HasSnapshot || rec.Snapshot.Acked != 9 || rec.Snapshot.BytesIn != 999 || rec.Snapshot.Reports != 3 {
		t.Fatalf("snapshot = %+v (has=%v)", rec.Snapshot, rec.HasSnapshot)
	}
	if !rec.Finished || rec.Done != done {
		t.Fatalf("finish = %v %+v, want %+v", rec.Finished, rec.Done, done)
	}
	got := replayAll(t, rec)
	if len(got) != len(want) {
		t.Fatalf("replayed %d epochs, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("epoch %d payload diverged after roundtrip", i)
		}
	}
}

func TestRecoverTornTail(t *testing.T) {
	st := openStore(t, Options{Dir: t.TempDir(), SnapshotEvery: 1 << 20})
	id := testID(2)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop 3 bytes off the (only) segment, cutting the last
	// epoch record mid-CRC — the classic kill-mid-write artifact.
	seg := filepath.Join(st.Dir(), id, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rec := recoverOne(t, st)
	if rec.Epochs != 4 {
		t.Fatalf("recovered %d epochs from torn log, want 4", rec.Epochs)
	}

	// Resume truncates the tear and appends cleanly in a fresh segment.
	l2, err := rec.Resume(nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, l2, 4, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	rec2 := recoverOne(t, st)
	if rec2.Epochs != 7 {
		t.Fatalf("recovered %d epochs after resume, want 7", rec2.Epochs)
	}
	replayAll(t, rec2)
}

func TestRecoverBitFlip(t *testing.T) {
	st := openStore(t, Options{Dir: t.TempDir(), SnapshotEvery: 1 << 20})
	id := testID(3)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Locate the third epoch record (record index 3: meta is record 0) and
	// flip one payload bit: its CRC must fail and bound the valid prefix.
	seg := filepath.Join(st.Dir(), id, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int
	off := segHdrLen
	for off < len(data) {
		offsets = append(offsets, off)
		_, _, size, err := readRecord(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += size
	}
	target := offsets[3]
	data[target+recHdrLen] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := recoverOne(t, st)
	if rec.Epochs != 2 {
		t.Fatalf("recovered %d epochs past a bit flip, want 2", rec.Epochs)
	}
}

// segmentDigests hashes every segment below the open one, keyed by number.
func segmentDigests(t *testing.T, st *Store, id string, open int) map[int][32]byte {
	t.Helper()
	out := map[int][32]byte{}
	for seq := 1; seq < open; seq++ {
		data, err := os.ReadFile(filepath.Join(st.Dir(), id, segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		out[seq] = sha256.Sum256(data)
	}
	return out
}

// segmentRecords sums the encoded bytes of one segment's records of type
// typ, and returns the segment's size.
func segmentRecords(t *testing.T, path string, typ byte) (recBytes, size int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scanSegment(data, func(got byte, payload []byte) error {
		if got == typ {
			recBytes += recHdrLen + len(payload) + recTrailerLen
		}
		return nil
	}); err != nil {
		t.Fatalf("segment %s does not scan clean: %v", path, err)
	}
	return recBytes, len(data)
}

// TestRotation pins the log's one structural invariant: a sealed segment is
// written once and never rewritten, yet recovery still finds every epoch
// and the latest cursor, wherever rotation left them; and the cursors it
// keeps are a negligible share of the log.
func TestRotation(t *testing.T) {
	t.Run("sealed-immutable", testRotationSealedImmutable)
	t.Run("cursor-share", testRotationCursorShare)
}

func testRotationSealedImmutable(t *testing.T) {
	const snapEvery = 40 // more epochs than one 512-byte segment holds
	st := openStore(t, Options{Dir: t.TempDir(), SnapshotEvery: snapEvery, SegmentBytes: 512})
	id := testID(4)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Append until a segment has been opened after the latest cursor, so
	// the open segment holds none. At every seal, the sealed segment must
	// extend the bytes it held before the sealing append, and every earlier
	// sealed segment must hash as it did at its own seal.
	var want [][]byte
	sealed := map[int][32]byte{}
	lastSnap, lastSnapSeq := -1, 0
	for num := 0; lastSnapSeq == 0 || l.seq == lastSnapSeq; num++ {
		seq := l.seq
		path := filepath.Join(st.Dir(), id, segName(seq))
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, appendEpochs(t, l, num, 1)...)
		if l.sinceSnap == 0 {
			lastSnap, lastSnapSeq = num, seq
		}
		if l.seq != seq {
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(after, before) {
				t.Fatalf("sealing segment %d rewrote bytes it already held", seq)
			}
			now := segmentDigests(t, st, id, l.seq)
			for s, sum := range sealed {
				if now[s] != sum {
					t.Fatalf("sealed segment %d changed when segment %d was sealed", s, seq)
				}
			}
			sealed = now
		}
		if num > 10*snapEvery {
			t.Fatal("no segment opened after a cursor; rotation broken")
		}
	}
	open := l.seq
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 3 {
		t.Fatalf("only %d sealed segments after %d epochs at 512-byte segments", len(sealed), len(want))
	}
	now := segmentDigests(t, st, id, open)
	for s, sum := range sealed {
		if now[s] != sum {
			t.Fatalf("sealed segment %d changed between its seal and Close", s)
		}
	}
	if n, _ := segmentRecords(t, filepath.Join(st.Dir(), id, segName(open)), recSnapshot); n != 0 {
		t.Fatalf("open segment %d holds a cursor; the test needs it to hold none", open)
	}

	rec := recoverOne(t, st)
	if rec.Epochs != len(want) {
		t.Fatalf("recovered %d epochs across segments, want %d", rec.Epochs, len(want))
	}
	got := replayAll(t, rec)
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("epoch %d payload diverged across rotation", i)
		}
	}
	if !rec.HasSnapshot || rec.Snapshot.Acked != lastSnap {
		t.Fatalf("recovered cursor %+v (has=%v), want the one at epoch %d in segment %d",
			rec.Snapshot, rec.HasSnapshot, lastSnap, lastSnapSeq)
	}
}

// testRotationCursorShare: under default options and ~10 B/event epochs
// (1024 events per epoch), cursor records are at most 0.1 % of the log's
// bytes — the reason sealed segments keep them instead of being
// rewritten.
func testRotationCursorShare(t *testing.T) {
	st := openStore(t, Options{Dir: t.TempDir(), Fsync: FsyncOff})
	id := testID(10)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1024*10)
	var bytesIn int64
	for num := 0; num < 512; num++ {
		p := epochPayload(num, body)
		bytesIn += int64(len(p)) + 5
		snap := Snapshot{Acked: num, Epochs: int64(num + 1), BytesIn: bytesIn, Reports: 3 * num}
		if err := l.AppendEpoch(p, snap); err != nil {
			t.Fatal(err)
		}
	}
	open := l.seq
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if open < 2 {
		t.Fatalf("no rotation at default segment size after %d bytes", bytesIn)
	}
	var cursors, total int
	for seq := 1; seq <= open; seq++ {
		n, size := segmentRecords(t, filepath.Join(st.Dir(), id, segName(seq)), recSnapshot)
		cursors += n
		total += size
	}
	share := float64(cursors) / float64(total)
	t.Logf("cursor records: %d of %d log bytes (%.4f %%)", cursors, total, 100*share)
	if cursors == 0 || share > 0.001 {
		t.Fatalf("cursor records are %.4f %% of the log, want (0, 0.1 %%]", 100*share)
	}
}

func TestRemoveDeletesSessionDir(t *testing.T) {
	st := openStore(t, Options{Dir: t.TempDir()})
	id := testID(5)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	appendEpochs(t, l, 0, 3)
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), id)); !os.IsNotExist(err) {
		t.Fatalf("session dir survived Remove: %v", err)
	}
	if recs, err := st.Recover(); err != nil || len(recs) != 0 {
		t.Fatalf("Recover after Remove = %d sessions, %v", len(recs), err)
	}
}

func TestStoreLockExcludesSecondOpener(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, Options{Dir: dir})
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("second Open of a locked store dir succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	st2.Close()
}

func TestRecoverDropsGarbage(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, Options{Dir: dir})

	// A non-session directory is ignored and left alone.
	if err := os.MkdirAll(filepath.Join(dir, "not-a-session"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A session-shaped directory with no segments cannot be resumed: dropped.
	empty := testID(6)
	if err := os.MkdirAll(filepath.Join(dir, empty), 0o755); err != nil {
		t.Fatal(err)
	}
	// One with a segment whose meta record is torn off: dropped too.
	noMeta := testID(7)
	if err := os.MkdirAll(filepath.Join(dir, noMeta), 0o755); err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(segMagic), segVersion)
	if err := os.WriteFile(filepath.Join(dir, noMeta, segName(1)), hdr, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("recovered %d sessions from garbage, want 0", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "not-a-session")); err != nil {
		t.Fatalf("non-session dir was touched: %v", err)
	}
	for _, id := range []string{empty, noMeta} {
		if _, err := os.Stat(filepath.Join(dir, id)); !os.IsNotExist(err) {
			t.Fatalf("unrecoverable dir %s not garbage-collected", id[:12])
		}
	}
}

func TestLogErrorIsSticky(t *testing.T) {
	st := openStore(t, Options{Dir: t.TempDir()})
	id := testID(8)
	l, err := st.Create(id, testMeta(id), nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := l.fail(boom); !errors.Is(err, boom) {
		t.Fatalf("fail = %v", err)
	}
	if err := l.AppendEpoch(epochPayload(0, nil), Snapshot{}); !errors.Is(err, boom) {
		t.Fatalf("append after failure = %v, want sticky error", err)
	}
	if !errors.Is(l.Err(), boom) {
		t.Fatalf("Err = %v, want sticky error", l.Err())
	}
}

func TestParseFsync(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Fsync
	}{{"per-ack", FsyncPerAck}, {"batched", FsyncBatched}, {"", FsyncBatched}, {"off", FsyncOff}} {
		got, err := ParseFsync(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseFsync(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("Fsync(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Error("ParseFsync accepted garbage")
	}
}

func TestFsyncPoliciesAllRecover(t *testing.T) {
	// Every policy must produce an identical recoverable log after a clean
	// Close; they differ only in *when* bytes hit stable storage.
	for _, mode := range []Fsync{FsyncPerAck, FsyncBatched, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			st := openStore(t, Options{Dir: t.TempDir(), Fsync: mode, BatchEvery: 3})
			id := testID(9)
			l, err := st.Create(id, testMeta(id), nil)
			if err != nil {
				t.Fatal(err)
			}
			appendEpochs(t, l, 0, 10)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if rec := recoverOne(t, st); rec.Epochs != 10 {
				t.Fatalf("fsync=%v recovered %d epochs, want 10", mode, rec.Epochs)
			}
		})
	}
}
