// Package proto defines the butterflyd wire protocol: a length-prefixed
// frame stream over TCP carrying one trace-analysis session per connection.
//
// Frame layout:
//
//	uint32 big-endian length | 1-byte frame type | payload (length−1 bytes)
//
// Control frames (Hello, Welcome, Reject, Reports, Done, Error) carry JSON
// payloads — tiny, rare, and debuggable on the wire. Data frames reuse the
// binary BFLYS1 stream codec: an Epoch frame is a uvarint epoch number
// followed by the epoch-frame body encoding of trace.EncodeEpochRow, so the
// service speaks exactly the format the in-process streaming driver
// consumes. Ack frames are a bare uvarint epoch number.
//
// Session lifecycle (DESIGN.md §10):
//
//	client                          server
//	Hello{lifeguard, T, resume?} →
//	                              ← Welcome{session, nextEpoch} | Reject
//	Epoch(l), Epoch(l+1), ...    →
//	                              ← Reports(l)?, Ack(l), ...
//	End                          →
//	                              ← Reports(L)?, Done{epochs, events}
//
// Ack(l) promises that tick l is folded into the server-side checkpoint:
// after a disconnect, the client resumes by re-dialing with
// Hello{Resume: session, AckedEpoch: lastAck} and re-sending only epochs
// the Welcome's NextEpoch onward. The server replays any Reports frames for
// ticks after AckedEpoch, so reports can neither be lost nor duplicated.
package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"butterfly/internal/core"
	"butterfly/internal/failpoint"
	"butterfly/internal/trace"
)

// Version is the protocol revision carried in Hello; the server rejects
// mismatches rather than guessing at compatibility.
const Version = 1

// MaxFrame bounds the accepted frame length (type byte + payload). An epoch
// frame of a reasonable session fits comfortably; anything larger is a
// protocol error, not a reason to allocate.
const MaxFrame = 16 << 20

// FrameType tags a frame's payload.
type FrameType byte

const (
	// FrameHello (client→server) opens or resumes a session; JSON Hello.
	FrameHello FrameType = 1
	// FrameWelcome (server→client) accepts a session; JSON Welcome.
	FrameWelcome FrameType = 2
	// FrameReject (server→client) refuses a Hello; JSON Reject.
	FrameReject FrameType = 3
	// FrameEpoch (client→server) carries one epoch row: uvarint epoch
	// number, then the trace.EncodeEpochRow body.
	FrameEpoch FrameType = 4
	// FrameEnd (client→server) marks the end of the trace; empty payload.
	FrameEnd FrameType = 5
	// FrameAck (server→client) acknowledges a checkpointed tick: uvarint
	// epoch number.
	FrameAck FrameType = 6
	// FrameReports (server→client) delivers one tick's reports; JSON
	// Reports. Sent only for ticks that produced reports.
	FrameReports FrameType = 7
	// FrameDone (server→client) closes a completed session; JSON Done.
	FrameDone FrameType = 8
	// FrameError (server→client) aborts a session; JSON ErrorMsg.
	FrameError FrameType = 9
)

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameReject:
		return "reject"
	case FrameEpoch:
		return "epoch"
	case FrameEnd:
		return "end"
	case FrameAck:
		return "ack"
	case FrameReports:
		return "reports"
	case FrameDone:
		return "done"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// Hello opens (Resume == "") or resumes (Resume == session token) an
// analysis session.
type Hello struct {
	Proto     int    `json:"proto"`
	Lifeguard string `json:"lifeguard"`
	// HeapBase and Relaxed are lifeguard options (addrcheck/memcheck heap
	// filter; taintcheck memory model).
	HeapBase uint64 `json:"heap_base,omitempty"`
	Relaxed  bool   `json:"relaxed,omitempty"`
	// Serial asks for the deterministic single-goroutine driver.
	Serial     bool `json:"serial,omitempty"`
	NumThreads int  `json:"num_threads"`
	// Resume names an existing session to reattach to.
	Resume string `json:"resume,omitempty"`
	// AckedEpoch is the highest tick whose Ack the client has seen
	// (−1 for none). The server replays Reports for later ticks.
	AckedEpoch int `json:"acked_epoch"`
	// TraceID correlates this session across processes: the client generates
	// it once per run (obs.NewTraceID) and repeats it on every resume Hello;
	// both sides stamp it into their logs and Chrome-trace metadata, so the
	// two traces merge into one attributable timeline. Optional; the server
	// generates one if absent, and sanitizes whatever arrives (it is a remote
	// input that ends up in logs).
	TraceID string `json:"trace_id,omitempty"`
}

// Welcome accepts a session.
type Welcome struct {
	// Session is the token to resume with after a disconnect.
	Session string `json:"session"`
	// NextEpoch is the first epoch the server expects; on resume the client
	// drops buffered epochs below it (they are checkpointed server-side).
	NextEpoch int `json:"next_epoch"`
	// Finished marks a session whose analysis already completed: no epochs
	// are expected, only the Reports replay and Done follow.
	Finished bool `json:"finished,omitempty"`
	// Shards is always 1. It is kept on the wire for clients that log it;
	// the server no longer shards lifeguard state (DESIGN.md §11).
	Shards int `json:"shards,omitempty"`
	// Durable marks a session whose acknowledged epochs are persisted in the
	// server's write-ahead log (DESIGN.md §14): every Ack also survives a
	// butterflyd crash, not just a connection loss.
	Durable bool `json:"durable,omitempty"`
	// Recovered marks a session that was rebuilt from that log after a
	// server restart — the client is resuming across a butterflyd death.
	Recovered bool `json:"recovered,omitempty"`
}

// Reject refuses a Hello.
type Reject struct {
	// Code is machine-readable: "full", "draining", "bad-request",
	// "unknown-session", "busy", "version", "lost-progress" (a restarted
	// server recovered the session with fewer acknowledged epochs than the
	// client has seen — possible only under `-fsync off`), or "overloaded"
	// (the server's memory budget is exhausted; retryable with backoff,
	// like "busy").
	Code   string `json:"code"`
	Reason string `json:"reason"`
}

// Reports carries the reports of one analysis tick. Epoch is the tick
// number; the trailing tick (Finish) uses the total epoch count, one past
// the last fed epoch. Reports reuse core.Report verbatim: Ref and Event are
// integer-field structs that round-trip JSON exactly.
type Reports struct {
	Epoch   int           `json:"epoch"`
	Reports []core.Report `json:"reports"`
}

// Done closes a completed session with its totals.
type Done struct {
	Epochs  int `json:"epochs"`
	Events  int `json:"events"`
	Reports int `json:"reports"`
}

// ErrorMsg aborts a session.
type ErrorMsg struct {
	// Code is machine-readable: "quota-bytes", "quota-epochs", "quota-mem"
	// (the session alone exceeds the per-session memory budget), "protocol",
	// "internal", "quarantined" (the session's lifeguard panicked and the
	// session was isolated; its analysis state is not trustworthy).
	Code   string `json:"code"`
	Reason string `json:"reason"`
}

// WriteFrame writes one frame. Payloads larger than MaxFrame−1 are refused.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	n := len(payload) + 1
	if n > MaxFrame {
		return fmt.Errorf("proto: %v frame of %d bytes exceeds MaxFrame", t, n)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteJSON marshals v and writes it as a frame of type t. Reports frames —
// the only payload that is hot — take the hand-rolled encoder directly;
// routing them through json.Marshal would re-validate and re-compact the
// bytes MarshalJSON just produced.
func WriteJSON(w io.Writer, t FrameType, v any) error {
	var payload []byte
	var err error
	if r, ok := v.(Reports); ok {
		payload, err = r.MarshalJSON()
	} else {
		payload, err = json.Marshal(v)
	}
	if err != nil {
		return fmt.Errorf("proto: encoding %v: %w", t, err)
	}
	return WriteFrame(w, t, payload)
}

// ReadFrame reads one frame. A reader exhausted exactly at a frame boundary
// returns io.EOF; one cut mid-frame returns an error matching
// io.ErrUnexpectedEOF, so connection loss is distinguishable from protocol
// corruption (mirroring the trace stream codec's contract).
func ReadFrame(br *bufio.Reader) (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("proto: frame length: %w", cut(err))
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("proto: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("proto: frame of %d bytes exceeds MaxFrame", n)
	}
	tb, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("proto: frame type: %w", cut(err))
	}
	// Never trust the claimed length for allocation: grow as data actually
	// arrives, so a forged header cannot exhaust memory.
	want := int64(n - 1)
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, want); err != nil {
		return 0, nil, fmt.Errorf("proto: %v frame body (%d of %d bytes): %w",
			FrameType(tb), buf.Len(), want, cut(err))
	}
	return FrameType(tb), buf.Bytes(), nil
}

// frameChunk bounds how far FrameReader grows its buffer beyond the bytes
// that have actually arrived, so a forged length cannot exhaust memory.
const frameChunk = 32 << 10

// FrameReader reads frames like ReadFrame but reuses one payload buffer
// across frames, so a session's steady-state frame loop does not allocate.
// The returned payload is valid only until the next Read call; callers that
// retain it must copy. The claimed frame length is still never trusted for
// allocation: the buffer grows in frameChunk steps as data arrives.
type FrameReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewFrameReader returns a FrameReader over br.
func NewFrameReader(br *bufio.Reader) *FrameReader { return &FrameReader{br: br} }

// Read reads one frame, with ReadFrame's EOF contract.
func (fr *FrameReader) Read() (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("proto: frame length: %w", cut(err))
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("proto: zero-length frame")
	}
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("proto: frame of %d bytes exceeds MaxFrame", n)
	}
	tb, err := fr.br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("proto: frame type: %w", cut(err))
	}
	want := int(n - 1)
	buf := fr.buf[:0]
	for len(buf) < want {
		chunk := want - len(buf)
		if chunk > frameChunk {
			chunk = frameChunk
		}
		if cap(buf)-len(buf) < chunk {
			grown := make([]byte, len(buf), len(buf)+chunk)
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(fr.br, buf[len(buf):len(buf)+chunk])
		buf = buf[:len(buf)+m]
		if err != nil {
			fr.buf = buf
			return 0, nil, fmt.Errorf("proto: %v frame body (%d of %d bytes): %w",
				FrameType(tb), len(buf), want, cut(err))
		}
	}
	fr.buf = buf
	return FrameType(tb), buf, nil
}

// cut rewrites a clean io.EOF mid-frame into io.ErrUnexpectedEOF while
// keeping any other error (network resets and the like) in the chain
// alongside the sentinel.
func cut(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	return fmt.Errorf("%w: %w", io.ErrUnexpectedEOF, err)
}

// EncodeEpoch builds the payload of an Epoch frame: the epoch number, then
// the row in the BFLYS1 epoch-frame body encoding.
func EncodeEpoch(epochNum int, row [][]trace.Event) ([]byte, error) {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(epochNum))])
	if err := trace.EncodeEpochRow(&buf, row); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeEpoch parses an Epoch frame payload for a session of nthreads
// threads.
func DecodeEpoch(payload []byte, nthreads int) (epochNum int, row [][]trace.Event, err error) {
	return DecodeEpochInto(payload, nthreads, nil)
}

// DecodeEpochInto is DecodeEpoch decoding into into's event backings
// (trace.DecodeEpochRowInto): the pooled server path hands in the event
// slices of a recycled epoch.RowPool row and decodes without allocating.
// Pass nil to allocate fresh slices.
func DecodeEpochInto(payload []byte, nthreads int, into [][]trace.Event) (epochNum int, row [][]trace.Event, err error) {
	if failpoint.Fire(failpoint.SiteProtoDecode) {
		// Deterministic decode-time corruption: a real bit flip could decode
		// into a *valid* row and silently poison the analysis, so the fault
		// is surfaced the way every detected corruption is — a decode error
		// the server turns into a protocol abort.
		return 0, nil, fmt.Errorf("proto: epoch frame corrupted (%w)", failpoint.ErrInjected)
	}
	num, n := binary.Uvarint(payload)
	if n <= 0 || num > 1<<40 {
		return 0, nil, fmt.Errorf("proto: bad epoch number in epoch frame")
	}
	row, err = trace.DecodeEpochRowInto(payload[n:], nthreads, into)
	if err != nil {
		return 0, nil, err
	}
	return int(num), row, nil
}

// EncodeAck builds an Ack frame payload.
func EncodeAck(epochNum int) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append([]byte(nil), tmp[:binary.PutUvarint(tmp[:], uint64(epochNum))]...)
}

// DecodeAck parses an Ack frame payload.
func DecodeAck(payload []byte) (int, error) {
	num, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) || num > 1<<40 {
		return 0, fmt.Errorf("proto: bad ack payload")
	}
	return int(num), nil
}
