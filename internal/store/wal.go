// Package store is butterflyd's durable session store: a per-session
// segmented write-ahead log of epoch frames plus periodic snapshot records,
// giving crash recovery by deterministic replay (DESIGN.md §14).
//
// The paper's epoch-framed event model is naturally log-structured: an
// acknowledged epoch tick is exactly one durable unit of progress, and the
// analysis folding those ticks is deterministic (the differential suites
// prove serial, pipelined and incremental runs equal), so the log needs to capture only the *inputs* —
// the epoch frames, byte-for-byte as they arrived on the wire — and a crash
// is survived by replaying them through a fresh core.Incremental. Reports
// regenerate identically; they are never logged.
//
// Layout: <dir>/<session-id>/<seq>.wal, each segment a fixed 8-byte header
// followed by records:
//
//	uint32 BE  n = 1 + len(payload)        (same bound as proto.MaxFrame)
//	byte       record type
//	payload    (n−1 bytes)
//	uint32 BE  CRC32C over the 5 header bytes and the payload
//
// Segments are append-only: once the log rotates past a segment, that file
// is never written, truncated or renamed again while the session lives.
// Only boot recovery truncates, and only the torn tail of the last segment.
//
// A torn tail — the record a crash cut mid-write — fails its CRC (or runs
// out of bytes) and recovery stops cleanly at the last valid record. Only
// un-acknowledged work can be lost that way: every Ack is preceded by the
// epoch's append (and, per the fsync policy, its fsync).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"butterfly/internal/proto"
)

// Segment header: magic, a format version byte, then records.
const (
	segMagic   = "BFWAL1\x00"
	segVersion = 1
	segHdrLen  = len(segMagic) + 1
)

// Record types.
const (
	// recMeta is the first record of a session's first segment: JSON Meta
	// (session ID, creating Hello, trace ID). Recovery needs it to rebuild
	// the lifeguard before any epoch can be replayed.
	recMeta = byte(1)
	// recEpoch carries one epoch frame payload verbatim (uvarint epoch
	// number + BFLYS1 row body) — exactly the bytes of the client's Epoch
	// frame, so appending is a copy and replaying reuses the server decoder.
	recEpoch = byte(2)
	// recSnapshot is a JSON Snapshot: the progress cursor at the checkpoint
	// boundary (last-acked tick, counters). Recovery keeps the latest one in
	// the valid prefix, whichever segment holds it; superseded cursors stay
	// where they were written (about 80 bytes per SnapshotEvery epochs).
	recSnapshot = byte(3)
	// recFinish marks End processed: JSON proto.Done. Recovery re-runs
	// Finish on the replayed driver and cross-checks the stored totals.
	recFinish = byte(4)
)

// recHdrLen and recTrailerLen frame every record.
const (
	recHdrLen     = 5 // uint32 length + type byte
	recTrailerLen = 4 // CRC32C
)

// maxRecord bounds a record's (type + payload) length. Epoch payloads are
// proto frame payloads, so the proto bound is the natural one.
const maxRecord = proto.MaxFrame

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks a record cut short by a crash: scanning stops at the last
// valid record, silently — a torn tail is the expected crash artifact, not
// corruption worth failing recovery over.
var errTorn = errors.New("store: torn record at segment tail")

// errCorrupt marks a structurally invalid record (bad length, CRC
// mismatch): scanning also stops, but the caller logs it.
var errCorrupt = errors.New("store: corrupt record")

// appendRecord writes one framed record and returns the bytes written.
// scratch must be at least recHdrLen+recTrailerLen bytes; nothing escapes to
// the heap, keeping the per-epoch append path allocation-free.
func appendRecord(w interface{ Write([]byte) (int, error) }, scratch []byte, typ byte, payload []byte) (int, error) {
	n := 1 + len(payload)
	if n > maxRecord {
		return 0, fmt.Errorf("store: %d-byte record exceeds limit", n)
	}
	hdr := scratch[:recHdrLen]
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	crc := crc32.Update(0, castagnoli, hdr)
	crc = crc32.Update(crc, castagnoli, payload)
	trailer := scratch[recHdrLen : recHdrLen+recTrailerLen]
	binary.BigEndian.PutUint32(trailer, crc)
	if _, err := w.Write(trailer); err != nil {
		return 0, err
	}
	return recHdrLen + len(payload) + recTrailerLen, nil
}

// readRecord decodes the record at the head of data. It returns the type,
// the payload (aliasing data), and the total encoded size. Incomplete bytes
// return errTorn; structural damage returns errCorrupt.
func readRecord(data []byte) (typ byte, payload []byte, size int, err error) {
	if len(data) < recHdrLen {
		return 0, nil, 0, errTorn
	}
	n := binary.BigEndian.Uint32(data[:4])
	if n == 0 || n > maxRecord {
		return 0, nil, 0, errCorrupt
	}
	size = recHdrLen + int(n) - 1 + recTrailerLen
	if len(data) < size {
		return 0, nil, 0, errTorn
	}
	body := data[:recHdrLen+int(n)-1]
	want := binary.BigEndian.Uint32(data[size-recTrailerLen : size])
	if crc32.Checksum(body, castagnoli) != want {
		return 0, nil, 0, errCorrupt
	}
	return data[4], body[recHdrLen:], size, nil
}

// scanSegment walks the records of one segment image (header included),
// calling fn for each valid record in order. It returns the byte length of
// the valid prefix — everything after it is torn or corrupt — and the
// reason scanning stopped (nil for a clean end, errTorn/errCorrupt
// otherwise, or fn's error). fn receives payloads aliasing data.
func scanSegment(data []byte, fn func(typ byte, payload []byte) error) (valid int, err error) {
	if len(data) < segHdrLen {
		return 0, errTorn
	}
	if string(data[:len(segMagic)]) != segMagic || data[len(segMagic)] != segVersion {
		return 0, errCorrupt
	}
	off := segHdrLen
	for off < len(data) {
		typ, payload, size, err := readRecord(data[off:])
		if err != nil {
			return off, err
		}
		if fn != nil {
			if err := fn(typ, payload); err != nil {
				return off, err
			}
		}
		off += size
	}
	return off, nil
}
