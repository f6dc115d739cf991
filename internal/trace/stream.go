package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"butterfly/internal/obs"
)

// Streaming trace format:
//
//	magic "BFLYS1" | uvarint nthreads
//	frame*:
//	  epoch frame: 0x01 | per thread: uvarint nevents | events
//	  end frame:   0x00 | uvarint n (0 = none) | n × (uvarint thread, uvarint index)
//
// Each epoch frame carries one complete epoch row — one (possibly empty)
// event sequence per thread — so a consumer can analyze epoch l while the
// producer is still executing epoch l+1: nothing in the format requires the
// trace length to be known in advance. Unlike the batch format ("BFLY1",
// codec.go), which stores whole threads back to back and therefore cannot be
// chunked until fully read, the stream format is the on-the-wire shape of
// the paper's log: heartbeats become frame boundaries and are not
// represented as events. The optional ground-truth section of the end frame
// indexes events by (thread, position among that thread's streamed events).

const streamMagic = "BFLYS1"

// Stream frame type bytes.
const (
	frameEnd   = 0x00
	frameEpoch = 0x01
)

// maxStreamThreads bounds the header thread count, mirroring ReadBinary's
// guard against forged headers.
const maxStreamThreads = 1 << 16

// StreamWriter encodes a trace one epoch row at a time. Epoch rows are
// written with WriteEpoch; Close writes the end frame (with the optional
// ground truth). Each frame is appended into one reused scratch slice and
// handed to the underlying writer in one Write, so a consumer sees every
// frame as soon as it is written. A StreamWriter is not safe for
// concurrent use.
type StreamWriter struct {
	w        io.Writer
	nthreads int
	closed   bool
	buf      []byte // the frame being written
}

// NewStreamWriter writes the stream header for nthreads threads to w and
// returns a writer for the epoch frames.
func NewStreamWriter(w io.Writer, nthreads int) (*StreamWriter, error) {
	if nthreads < 0 || nthreads > maxStreamThreads {
		return nil, fmt.Errorf("trace: unreasonable thread count %d", nthreads)
	}
	sw := &StreamWriter{w: w, nthreads: nthreads}
	sw.buf = binary.AppendUvarint(append(sw.buf, streamMagic...), uint64(nthreads))
	if _, err := w.Write(sw.buf); err != nil {
		return nil, err
	}
	return sw, nil
}

// NumThreads returns the thread count declared in the header.
func (sw *StreamWriter) NumThreads() int { return sw.nthreads }

// WriteEpoch writes one epoch frame. row must hold exactly one event slice
// per thread (empty slices are fine) and must not contain Heartbeat markers:
// epoch boundaries are the frames themselves. A rejected row writes nothing.
func (sw *StreamWriter) WriteEpoch(row [][]Event) error {
	if sw.closed {
		return fmt.Errorf("trace: WriteEpoch after Close")
	}
	if len(row) != sw.nthreads {
		return fmt.Errorf("trace: epoch row has %d threads, want %d", len(row), sw.nthreads)
	}
	buf, err := AppendEpochRow(append(sw.buf[:0], frameEpoch), row)
	sw.buf = buf
	if err != nil {
		return err
	}
	_, err = sw.w.Write(buf)
	return err
}

// Close writes the end frame, including the ground-truth section when
// global is non-nil (refs index each thread's streamed events in order).
func (sw *StreamWriter) Close(global []GlobalRef) error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	sw.buf = appendGlobal(append(sw.buf[:0], frameEnd), global)
	_, err := sw.w.Write(sw.buf)
	return err
}

// StreamReader incrementally decodes a stream written by StreamWriter.
// NextEpochInto returns rows until the end frame, after which it returns io.EOF
// and Global exposes the ground-truth section. A StreamReader is not safe
// for concurrent use.
type StreamReader struct {
	in       input // a window over the stream's bufio.Reader
	nthreads int
	done     bool
	epoch    int
	global   []GlobalRef

	// frames/events are set by Instrument; nil handles ignore writes.
	frames *obs.Counter
	events *obs.Counter
}

// Instrument attaches a telemetry registry: the reader counts decoded
// epoch frames (trace.stream.frames) and events (trace.stream.events) as
// they arrive, so a stalled or slow producer is distinguishable from a
// stalled analysis (compare against driver.epochs).
func (sr *StreamReader) Instrument(reg *obs.Registry) {
	sr.frames = reg.Counter("trace.stream.frames")
	sr.events = reg.Counter("trace.stream.events")
}

// NewStreamReader reads the stream header from r.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		// A stream that ends inside (or before) its header is truncated:
		// report io.ErrUnexpectedEOF, not the clean io.EOF that ReadFull
		// returns for an empty reader, so retry logic can tell a dropped
		// connection from a complete stream.
		return nil, fmt.Errorf("trace: reading stream magic: %w", truncated(err))
	}
	if string(magic) != streamMagic {
		return nil, fmt.Errorf("trace: bad stream magic %q", magic)
	}
	sr := &StreamReader{in: input{br: br}}
	nthreads, err := sr.in.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading thread count: %w", truncated(err))
	}
	if nthreads > maxStreamThreads {
		return nil, fmt.Errorf("trace: unreasonable thread count %d", nthreads)
	}
	sr.nthreads = int(nthreads)
	return sr, nil
}

// NumThreads returns the thread count declared in the header.
func (sr *StreamReader) NumThreads() int { return sr.nthreads }

// NextEpochInto decodes the next epoch frame as one event slice per thread,
// into into's event backings (see DecodeEpochRowInto); pass nil to allocate
// fresh slices. It returns io.EOF after the end frame; a stream truncated
// before its end frame yields io.ErrUnexpectedEOF instead. It decodes from
// a window over the reader's buffered bytes, so a frame of any size streams
// through the bufio.Reader's fixed buffer.
func (sr *StreamReader) NextEpochInto(into [][]Event) ([][]Event, error) {
	if sr.done {
		return nil, io.EOF
	}
	kind, err := sr.in.readByte()
	if err != nil {
		return nil, fmt.Errorf("trace: epoch %d frame: %w", sr.epoch, truncated(err))
	}
	switch kind {
	case frameEnd:
		global, err := sr.in.global()
		if err != nil {
			return nil, truncated(err)
		}
		sr.done = true
		sr.global = global
		return nil, io.EOF
	case frameEpoch:
		row, err := sr.in.epochBody(sr.nthreads, sr.epoch, into)
		if err != nil {
			return nil, err
		}
		sr.epoch++
		sr.frames.Inc()
		for _, evs := range row {
			sr.events.Add(int64(len(evs)))
		}
		return row, nil
	default:
		return nil, fmt.Errorf("trace: epoch %d: bad frame type %#x", sr.epoch, kind)
	}
}

// Global returns the ground-truth section of the end frame. It is nil until
// NextEpochInto has returned io.EOF.
func (sr *StreamReader) Global() []GlobalRef { return sr.global }

// truncated rewrites an io.EOF inside err to io.ErrUnexpectedEOF: a stream
// that stops mid-structure is truncated, not complete. Callers wrap the
// result, so NextEpochInto returns bare io.EOF only for a well-formed end
// frame. The original error stays in the chain (%w twice), so context added
// by lower layers remains errors.Is/As-matchable alongside the sentinel.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w", io.ErrUnexpectedEOF, err)
	}
	return err
}
