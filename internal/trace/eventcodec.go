package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// The event codec. Every path that moves events — BFLY1 batch files, the
// BFLYS1 stream, butterflyd Epoch frames and WAL replay — encodes with
// appendEvent and decodes with input.events, over byte slices:
//
//	event: kind byte | uvarint addr | uvarint size | uvarint src1 |
//	       uvarint src2 | uvarint cycle
//
// The decoder reads a slice, not an io.ByteReader, so an event costs no
// call per byte. A slice decode (DecodeEpochRowInto) sees all its bytes at
// once; a stream decode sees a window over its bufio.Reader's buffered
// bytes and moves the window on when it has consumed them.

// maxEventLen bounds one encoded event: the kind byte and five uvarints.
// While at least this many bytes remain, input.events decodes an event
// with one length check.
const maxEventLen = 1 + 5*binary.MaxVarintLen64

// maxCapHint bounds the event backing grown ahead of the data: a claimed
// count is untrusted, so a forged header cannot make the decoder allocate
// more than this before the events actually arrive.
const maxCapHint = 4096

// Kind masks for input.events: bit k is set for each kind a decode
// accepts. A batch file carries heartbeat markers; a stream epoch does not,
// its boundaries being the frames themselves.
const (
	allKinds    uint32 = 1<<numKinds - 1
	streamKinds        = allKinds &^ (1 << Heartbeat)
)

var (
	errOverflow  = errors.New("varint overflows a 64-bit integer")
	errHeartbeat = errors.New("heartbeat marker in stream epoch")
)

// input is what the decoder reads: buf[off:] are the bytes not yet
// consumed. A slice decode holds all its bytes in buf and has no br. A
// stream decode holds a window over br's buffered bytes; consumed bytes stay
// in br until refill discards them.
type input struct {
	buf []byte
	off int
	br  *bufio.Reader
}

// refill replaces an exhausted window with br's next buffered bytes. It
// waits only until one byte arrives, so a frame decode never blocks on bytes
// past its own end. At the end of the input it returns io.EOF (or the
// reader's error).
func (in *input) refill() error {
	if in.br == nil {
		return io.EOF
	}
	in.br.Discard(in.off) // cannot fail: the window is buffered
	in.buf, in.off = nil, 0
	if _, err := in.br.Peek(1); err != nil {
		return err
	}
	in.buf, _ = in.br.Peek(in.br.Buffered())
	return nil
}

// readByte reads one byte, moving the window on when it is empty.
func (in *input) readByte() (byte, error) {
	if in.off == len(in.buf) {
		if err := in.refill(); err != nil {
			return 0, err
		}
	}
	c := in.buf[in.off]
	in.off++
	return c, nil
}

// uvarint reads one uvarint with binary.ReadUvarint's outcomes: io.EOF
// before its first byte, io.ErrUnexpectedEOF inside it, errOverflow past 64
// bits.
func (in *input) uvarint() (uint64, error) {
	if len(in.buf)-in.off >= binary.MaxVarintLen64 {
		var bad bool
		if v, next := uvarintAt(in.buf, in.off, &bad); !bad {
			in.off = next
			return v, nil
		}
	}
	var x uint64
	var s uint
	for i := range binary.MaxVarintLen64 {
		c, err := in.readByte()
		if err != nil {
			if i > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, errOverflow
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, errOverflow
}

// uvarintAt decodes the uvarint at b[off:], which must hold at least
// binary.MaxVarintLen64 bytes, and returns the offset past it. A value that
// overflows 64 bits sets *bad. input.events inlines the single-byte case
// and calls this one only for longer values; kept out of line, it leaves
// that loop small.
//
//go:noinline
func uvarintAt(b []byte, off int, bad *bool) (uint64, int) {
	var x uint64
	var s uint
	for i := range binary.MaxVarintLen64 {
		c := b[off+i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			return x | uint64(c)<<s, off + i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	*bad = true
	return 0, off + binary.MaxVarintLen64
}

// events decodes n events onto the end of evs, accepting the kinds in the
// mask kinds. The backing grows once, to min(n, maxCapHint) free slots,
// and only as events arrive beyond that. On error it also returns the index
// of the event that failed; the error is the bare cause (a bad kind, a
// heartbeat, errOverflow, io.EOF or io.ErrUnexpectedEOF) for the caller to
// put in context.
func (in *input) events(evs []Event, n uint64, kinds uint32) ([]Event, uint64, error) {
	if want := int(min(n, maxCapHint)); evs == nil {
		evs = make([]Event, 0, want)
	} else if cap(evs)-len(evs) < want {
		evs = slices.Grow(evs, want)
	}
	b, off := in.buf, in.off
	for i := range n {
		if len(evs) == cap(evs) {
			evs = slices.Grow(evs, 1)
		}
		evs = evs[:len(evs)+1]
		e := &evs[len(evs)-1]
		if start := off; len(b)-off >= maxEventLen {
			k := b[off]
			off++
			var bad bool
			if c := b[off]; c < 0x80 {
				e.Addr, off = uint64(c), off+1
			} else {
				e.Addr, off = uvarintAt(b, off, &bad)
			}
			if c := b[off]; c < 0x80 {
				e.Size, off = uint64(c), off+1
			} else {
				e.Size, off = uvarintAt(b, off, &bad)
			}
			if c := b[off]; c < 0x80 {
				e.Src1, off = uint64(c), off+1
			} else {
				e.Src1, off = uvarintAt(b, off, &bad)
			}
			if c := b[off]; c < 0x80 {
				e.Src2, off = uint64(c), off+1
			} else {
				e.Src2, off = uvarintAt(b, off, &bad)
			}
			if c := b[off]; c < 0x80 {
				e.Cycle, off = uint64(c), off+1
			} else {
				e.Cycle, off = uvarintAt(b, off, &bad)
			}
			e.Kind = Kind(k)
			if kinds>>k&1 != 0 && !bad {
				continue
			}
			// Malformed: decode the event again on the checked path, which
			// names the fault.
			off = start
		}
		in.off = off
		if err := in.event(e, kinds); err != nil {
			return evs[:len(evs)-1], i, err
		}
		b, off = in.buf, in.off
	}
	in.off = off
	return evs, n, nil
}

// event decodes one event into e on the checked path, byte by byte, moving
// the window on as it runs out. Checks run in stream order: the kind's
// range, the fields, then whether the kind is accepted.
func (in *input) event(e *Event, kinds uint32) error {
	k, err := in.readByte()
	if err != nil {
		return err
	}
	if Kind(k) >= numKinds {
		return fmt.Errorf("bad kind %d", k)
	}
	for _, dst := range [...]*uint64{&e.Addr, &e.Size, &e.Src1, &e.Src2, &e.Cycle} {
		if *dst, err = in.uvarint(); err != nil {
			return err
		}
	}
	e.Kind = Kind(k)
	if kinds>>k&1 == 0 {
		return errHeartbeat
	}
	return nil
}

// epochBody decodes the body of an epoch frame: per thread, a uvarint
// event count and the events. epoch only labels errors. A non-nil into
// (nthreads entries) has its event backings reused for the decoded row.
// Truncation errors match errors.Is(err, io.ErrUnexpectedEOF).
func (in *input) epochBody(nthreads, epoch int, into [][]Event) ([][]Event, error) {
	row := into
	if row == nil {
		row = make([][]Event, nthreads)
	} else if len(row) != nthreads {
		return nil, fmt.Errorf("trace: epoch %d: row scratch has %d threads, want %d", epoch, len(row), nthreads)
	}
	for t := range row {
		nev, err := in.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: epoch %d thread %d count: %w", epoch, t, truncated(err))
		}
		evs, i, err := in.events(row[t][:0], nev, streamKinds)
		if err != nil {
			return nil, fmt.Errorf("trace: epoch %d thread %d event %d: %w", epoch, t, i, truncated(err))
		}
		row[t] = evs
	}
	return row, nil
}

// global decodes a ground-truth section: a count, then (thread, index)
// pairs.
func (in *input) global() ([]GlobalRef, error) {
	nglobal, err := in.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: ground truth count: %w", err)
	}
	if nglobal == 0 {
		return nil, nil
	}
	global := make([]GlobalRef, 0, min(nglobal, maxCapHint))
	for i := range nglobal {
		th, err := in.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: ground truth %d thread: %w", i, err)
		}
		idx, err := in.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: ground truth %d index: %w", i, err)
		}
		global = append(global, GlobalRef{ThreadID(th), int(idx)})
	}
	return global, nil
}

// DecodeEpochRowInto decodes an epoch row written by AppendEpochRow for
// nthreads threads. It applies the same validation as
// StreamReader.NextEpochInto (heartbeat rejection, untrusted counts) and
// additionally requires that data is fully consumed, so a frame with
// trailing garbage is rejected rather than silently truncated. Truncation
// errors match errors.Is(err, io.ErrUnexpectedEOF).
//
// into must hold nthreads entries whose event backings are reused (and
// grown as needed), so a steady-state consumer decodes without allocating;
// pass nil to allocate. The returned row aliases into's (possibly regrown)
// backings.
func DecodeEpochRowInto(data []byte, nthreads int, into [][]Event) ([][]Event, error) {
	in := input{buf: data}
	row, err := in.epochBody(nthreads, 0, into)
	if err != nil {
		return nil, err
	}
	if in.off != len(data) {
		return nil, fmt.Errorf("trace: epoch row has trailing bytes")
	}
	return row, nil
}

// AppendEpochRow appends the epoch-frame body encoding of row to dst (no
// frame type byte, no header): per thread, a uvarint event count and the
// events. It is the body of a BFLYS1 epoch frame and the unit payload of
// the butterflyd wire protocol; DecodeEpochRowInto reads it back given the
// same thread count. A row holding a Heartbeat marker is an error: epoch
// boundaries are the frames themselves.
func AppendEpochRow(dst []byte, row [][]Event) ([]byte, error) {
	for t, evs := range row {
		dst = binary.AppendUvarint(dst, uint64(len(evs)))
		for i := range evs {
			if evs[i].Kind == Heartbeat {
				return dst, fmt.Errorf("trace: thread %d: %w", t, errHeartbeat)
			}
			dst = appendEvent(dst, &evs[i])
		}
	}
	return dst, nil
}

// appendEvent appends one event's encoding to dst.
func appendEvent(dst []byte, e *Event) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendUvarint(dst, e.Addr)
	dst = binary.AppendUvarint(dst, e.Size)
	dst = binary.AppendUvarint(dst, e.Src1)
	dst = binary.AppendUvarint(dst, e.Src2)
	return binary.AppendUvarint(dst, e.Cycle)
}

// EpochRowLen returns the length of row's AppendEpochRow encoding, so a
// caller can size its buffer once.
func EpochRowLen(row [][]Event) int {
	n := 0
	for _, evs := range row {
		n += uvarintLen(uint64(len(evs)))
		for i := range evs {
			e := &evs[i]
			n += 1 + uvarintLen(e.Addr) + uvarintLen(e.Size) + uvarintLen(e.Src1) +
				uvarintLen(e.Src2) + uvarintLen(e.Cycle)
		}
	}
	return n
}

// uvarintLen is the encoded length of v: one byte per started 7 bits.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendGlobal appends a ground-truth section: the count, then the refs.
func appendGlobal(dst []byte, global []GlobalRef) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(global)))
	for _, g := range global {
		dst = binary.AppendUvarint(dst, uint64(g.Thread))
		dst = binary.AppendUvarint(dst, uint64(g.Index))
	}
	return dst
}
