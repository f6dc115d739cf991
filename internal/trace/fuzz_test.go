package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// Fuzz targets run their seed corpus under plain `go test` and can be
// explored further with `go test -fuzz=FuzzReadBinary ./internal/trace`.
// The decoders must never panic and must only return traces that validate.

func binarySeed(t interface{ Fatal(args ...any) }) []byte {
	tr := NewBuilder(2).
		T(0).Alloc(0x100, 16).Write(0x100, 8).Heartbeat().Free(0x100, 16).
		T(1).Taint(0x200, 4).Unop(0x10, 0x200).Heartbeat().Jump(0x10).
		Build()
	tr.Global = []GlobalRef{
		{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 3}, {1, 3},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadBinary(f *testing.F) {
	f.Add(binarySeed(f))
	f.Add([]byte("BFLY1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must satisfy the trace invariants and survive a
		// round trip.
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !tracesEqual(tr, tr2) {
			t.Fatal("round trip changed the trace")
		}
	})
}

func streamSeed(t interface{ Fatal(args ...any) }) []byte {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][][]Event{
		{
			{{Kind: Alloc, Addr: 0x100, Size: 16}, {Kind: Write, Addr: 0x100, Size: 8}},
			{{Kind: TaintSrc, Addr: 0x200, Size: 4}},
		},
		{
			{{Kind: Free, Addr: 0x100, Size: 16}},
			{}, // empty block
		},
	}
	for _, row := range rows {
		if err := sw.WriteEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close([]GlobalRef{{0, 0}, {1, 0}, {0, 1}, {0, 2}}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pooledStreamSeed builds a stream whose row sizes swing between epochs —
// a wide row, then an all-empty row, then wide again — so the pooled
// decode path (NextEpochInto over reused backings) shrinks and regrows
// its buffers instead of walking a monotone size.
func pooledStreamSeed(t interface{ Fatal(args ...any) }) []byte {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]Event, 9)
	for i := range big {
		big[i] = Event{Kind: Write, Addr: uint64(0x200 + 8*i), Size: 8}
	}
	rows := [][][]Event{
		{big, {{Kind: Read, Addr: 0x100, Size: 8}}},
		{{}, {}}, // zero-length rows: every thread empty
		{{{Kind: Free, Addr: 0x200, Size: 8}}, big},
	}
	for _, row := range rows {
		if err := sw.WriteEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzStreamReader(f *testing.F) {
	f.Add(streamSeed(f))
	f.Add(pooledStreamSeed(f))
	f.Add([]byte(streamMagic))
	f.Add(append([]byte(streamMagic), 0x02, 0x01, 0x00))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var rows [][][]Event
		for {
			row, err := sr.NextEpochInto(nil)
			if err != nil {
				if err != io.EOF {
					return // rejected mid-stream; nothing more to check
				}
				break
			}
			rows = append(rows, row)
		}
		// Anything fully accepted must survive a round trip.
		var buf bytes.Buffer
		sw, err := NewStreamWriter(&buf, sr.NumThreads())
		if err != nil {
			t.Fatalf("re-encode header failed: %v", err)
		}
		for _, row := range rows {
			if err := sw.WriteEpoch(row); err != nil {
				t.Fatalf("re-encode epoch failed: %v", err)
			}
		}
		if err := sw.Close(sr.Global()); err != nil {
			t.Fatalf("re-encode close failed: %v", err)
		}
		sr2, err := NewStreamReader(&buf)
		if err != nil {
			t.Fatalf("re-decode header failed: %v", err)
		}
		for i, want := range rows {
			got, err := sr2.NextEpochInto(nil)
			if err != nil {
				t.Fatalf("re-decode epoch %d failed: %v", i, err)
			}
			if !rowsEqual(got, want) {
				t.Fatalf("round trip changed epoch %d", i)
			}
		}
		if _, err := sr2.NextEpochInto(nil); err != io.EOF {
			t.Fatalf("re-decode end: got %v, want EOF", err)
		}
		if !reflect.DeepEqual(sr2.Global(), sr.Global()) {
			t.Fatal("round trip changed the ground truth")
		}
		// Window differential: the same bytes arriving one at a time, and in
		// chunks that end inside events, decode to the same rows.
		for _, r := range []io.Reader{
			iotest.OneByteReader(bytes.NewReader(data)),
			chunkReader{bytes.NewReader(data), 1 + len(data)%53},
		} {
			got, gotGlobal := streamEpochs(t, r)
			if len(got) != len(rows) || !reflect.DeepEqual(gotGlobal, sr.Global()) {
				t.Fatalf("chunked decode read %d epochs, want %d", len(got), len(rows))
			}
			for i := range rows {
				if !rowsEqual(got[i], rows[i]) {
					t.Fatalf("chunked decode changed epoch %d", i)
				}
			}
		}
		// Pooled-path differential: NextEpochInto with reused, deliberately
		// dirty buffers must yield exactly the rows the allocating path
		// produced. Stale capacity showing through (the pooled server decode
		// bug class) makes the comparison fail on poison events.
		sr3, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("pooled re-decode header failed: %v", err)
		}
		poison := Event{Kind: 0xFF, Addr: 0xdead_dead_dead_dead}
		into := make([][]Event, sr3.NumThreads())
		for t2 := range into {
			into[t2] = make([]Event, 0, 4)
		}
		for i := 0; ; i++ {
			for t2 := range into {
				spare := into[t2][:cap(into[t2])]
				for j := range spare {
					spare[j] = poison
				}
				into[t2] = spare[:0]
			}
			row, err := sr3.NextEpochInto(into)
			if err != nil {
				if err != io.EOF || i != len(rows) {
					t.Fatalf("pooled decode diverged at epoch %d: %v (allocating path read %d epochs)", i, err, len(rows))
				}
				break
			}
			if !rowsEqual(row, rows[i]) {
				t.Fatalf("pooled decode changed epoch %d", i)
			}
			copy(into, row) // keep reusing the (possibly grown) backings
		}
	})
}

// codecSeedRows are epoch rows for FuzzEpochRowCodec's corpus: small
// rows, and rows long enough that the decoder's fast path runs, with
// values of every varint length.
func codecSeedRows() [][][]Event {
	wide := make([]Event, 12)
	for i := range wide {
		v := uint64(1) << (5 * i)
		wide[i] = Event{Kind: Kind(i % int(Heartbeat)), Addr: v, Size: v - 1, Src1: v << 1, Src2: math.MaxUint64 >> i, Cycle: uint64(i)}
	}
	return [][][]Event{
		{{{Kind: Alloc, Addr: 0x100, Size: 16}}, {}},
		{{}, {{Kind: AssignBin, Addr: 0x1, Src1: 0x2, Src2: 0x3}, {Kind: Jump, Addr: 0x1}}},
		{wide, wide[3:]},
		{{}, {}},
	}
}

// FuzzEpochRowCodec checks the slice codec against the io.ByteReader
// decoder and bufio encoder it replaced (oracle_test.go). On any bytes both
// decoders accept with equal rows, or both reject with the same error,
// truncations matching io.ErrUnexpectedEOF on both sides. A decode into
// dirty, undersized backings agrees with the allocating one, and every
// accepted row re-encodes to the oracle encoder's bytes.
func FuzzEpochRowCodec(f *testing.F) {
	for _, row := range codecSeedRows() {
		data, err := oracleEncodeEpochRow(row)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(len(row)))
		f.Add(data[:len(data)*2/3], uint8(len(row)))
	}
	// A heartbeat, a bad kind and an overflowing varint, each inside the
	// fast path's reach and at the end of the data.
	long := bytes.Repeat([]byte{0}, 2*maxEventLen)
	for _, bad := range [][]byte{
		{byte(Heartbeat)},
		{byte(numKinds)},
		{byte(Read), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{byte(Read), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	} {
		f.Add(append(append([]byte{2}, bad...), long...), uint8(1))
		f.Add(append([]byte{1}, bad...), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		nthreads := int(n % 9)
		got, err := DecodeEpochRowInto(data, nthreads, nil)
		want, werr := oracleDecodeEpochRow(data, nthreads)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decoders disagree: %v vs oracle %v", err, werr)
		}
		if err != nil {
			if errors.Is(err, io.ErrUnexpectedEOF) != errors.Is(werr, io.ErrUnexpectedEOF) {
				t.Fatalf("truncation class differs: %v vs oracle %v", err, werr)
			}
			// The same fault at the same place; only the overflow error's
			// package prefix differs.
			if w := strings.Replace(werr.Error(), "binary: ", "", 1); err.Error() != w {
				t.Fatalf("errors differ: %q vs oracle %q", err, w)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rows differ:\n got %v\nwant %v", got, want)
		}
		poison := Event{Kind: 0xFF, Addr: 0xdead_dead_dead_dead}
		into := make([][]Event, nthreads)
		for t2 := range into {
			into[t2] = []Event{poison, poison}[:t2%3]
		}
		got2, err := DecodeEpochRowInto(data, nthreads, into)
		if err != nil || !rowsEqual(got2, want) {
			t.Fatalf("decode into dirty backings differs (%v)", err)
		}
		enc, err := AppendEpochRow([]byte("prefix"), got)
		if err != nil {
			t.Fatal(err)
		}
		wenc, err := oracleEncodeEpochRow(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc[:6]) != "prefix" || !bytes.Equal(enc[6:], wenc) {
			t.Fatalf("encoders differ:\n got %x\nwant %x", enc[6:], wenc)
		}
		if EpochRowLen(got) != len(wenc) {
			t.Fatalf("EpochRowLen = %d, encoding has %d bytes", EpochRowLen(got), len(wenc))
		}
	})
}

// rowsEqual compares epoch rows, treating nil and empty blocks alike.
func rowsEqual(a, b [][]Event) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if len(a[t]) != len(b[t]) {
			return false
		}
		for i := range a[t] {
			if a[t][i] != b[t][i] {
				return false
			}
		}
	}
	return true
}

func FuzzReadText(f *testing.F) {
	tr := NewBuilder(1).T(0).Write(0x10, 4).Heartbeat().Binop(1, 2, 3).Build()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("thread 0\nwrite 0x10 4\nglobal\n0 0\n")
	f.Add("garbage\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadText(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted invalid trace: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := ReadText(&buf); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
