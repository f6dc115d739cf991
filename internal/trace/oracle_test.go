package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// The codec's oracle: the io.ByteReader decoder and bufio encoder the
// slice codec replaced, kept verbatim in shape. FuzzEpochRowCodec checks
// the slice codec against it byte for byte.

// oracleEncodeEpochRow encodes row in the epoch-frame body encoding, one
// bufio.Writer call per field.
func oracleEncodeEpochRow(row [][]Event) ([]byte, error) {
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	var buf [binary.MaxVarintLen64]byte
	for t, evs := range row {
		n := binary.PutUvarint(buf[:], uint64(len(evs)))
		if _, err := bw.Write(buf[:n]); err != nil {
			return nil, err
		}
		for _, e := range evs {
			if e.Kind == Heartbeat {
				return nil, fmt.Errorf("trace: thread %d: heartbeat marker in stream epoch", t)
			}
			if err := bw.WriteByte(byte(e.Kind)); err != nil {
				return nil, err
			}
			for _, v := range [...]uint64{e.Addr, e.Size, e.Src1, e.Src2, e.Cycle} {
				n := binary.PutUvarint(buf[:], v)
				if _, err := bw.Write(buf[:n]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// oracleDecodeEpochRow decodes an epoch row through binary.ReadUvarint
// over a byte-at-a-time io.ByteReader, with the checks DecodeEpochRowInto
// makes: kind range, heartbeat rejection, varint overflow, truncation as
// io.ErrUnexpectedEOF, trailing bytes.
func oracleDecodeEpochRow(data []byte, nthreads int) ([][]Event, error) {
	sc := &oracleScanner{data: data}
	row := make([][]Event, nthreads)
	for t := range row {
		nev, err := binary.ReadUvarint(sc)
		if err != nil {
			return nil, fmt.Errorf("trace: epoch 0 thread %d count: %w", t, truncated(err))
		}
		evs := make([]Event, 0, min(nev, maxCapHint))
		for i := uint64(0); i < nev; i++ {
			e, err := oracleReadEvent(sc)
			if err != nil {
				return nil, fmt.Errorf("trace: epoch 0 thread %d event %d: %w", t, i, truncated(err))
			}
			if e.Kind == Heartbeat {
				return nil, fmt.Errorf("trace: epoch 0 thread %d event %d: heartbeat marker in stream epoch", t, i)
			}
			evs = append(evs, e)
		}
		row[t] = evs
	}
	if sc.off != len(data) {
		return nil, fmt.Errorf("trace: epoch row has trailing bytes")
	}
	return row, nil
}

func oracleReadEvent(br io.ByteReader) (Event, error) {
	var e Event
	kb, err := br.ReadByte()
	if err != nil {
		return e, err
	}
	if Kind(kb) >= numKinds {
		return e, fmt.Errorf("bad kind %d", kb)
	}
	e.Kind = Kind(kb)
	for _, dst := range [...]*uint64{&e.Addr, &e.Size, &e.Src1, &e.Src2, &e.Cycle} {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return e, err
		}
		*dst = v
	}
	return e, nil
}

// oracleScanner is an io.ByteReader over a byte slice.
type oracleScanner struct {
	data []byte
	off  int
}

func (s *oracleScanner) ReadByte() (byte, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	b := s.data[s.off]
	s.off++
	return b, nil
}
