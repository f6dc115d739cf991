package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func writeStreamRows(t *testing.T, nthreads int, rows [][][]Event, global []GlobalRef) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, nthreads)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := sw.WriteEpoch(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(global); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readStreamRows(t *testing.T, data []byte) (int, [][][]Event, []GlobalRef) {
	t.Helper()
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][][]Event
	for {
		row, err := sr.NextEpochInto(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	return sr.NumThreads(), rows, sr.Global()
}

func TestStreamRoundTrip(t *testing.T) {
	rows := [][][]Event{
		{
			{{Kind: Alloc, Addr: 0x100, Size: 16}, {Kind: Write, Addr: 0x100, Size: 8}},
			{{Kind: TaintSrc, Addr: 0x200, Size: 4}},
		},
		{
			{}, // empty block: the grid stays rectangular
			{{Kind: AssignUn, Addr: 0x10, Src1: 0x200}, {Kind: Jump, Addr: 0x10}},
		},
		{
			{{Kind: Free, Addr: 0x100, Size: 16}},
			{},
		},
	}
	global := []GlobalRef{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {1, 2}, {0, 2}}
	data := writeStreamRows(t, 2, rows, global)

	nt, got, gotGlobal := readStreamRows(t, data)
	if nt != 2 {
		t.Fatalf("NumThreads = %d, want 2", nt)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows round trip:\n got %v\nwant %v", got, rows)
	}
	if !reflect.DeepEqual(gotGlobal, global) {
		t.Fatalf("global round trip: got %v, want %v", gotGlobal, global)
	}
}

func TestStreamEmpty(t *testing.T) {
	data := writeStreamRows(t, 3, nil, nil)
	nt, rows, global := readStreamRows(t, data)
	if nt != 3 || rows != nil || global != nil {
		t.Fatalf("empty stream decoded to nt=%d rows=%v global=%v", nt, rows, global)
	}
}

func TestStreamTruncated(t *testing.T) {
	rows := [][][]Event{{
		{{Kind: Write, Addr: 0x10, Size: 4}},
		{{Kind: Read, Addr: 0x10, Size: 4}},
	}}
	data := writeStreamRows(t, 2, rows, nil)
	for cut := 0; cut < len(data); cut++ {
		sr, err := NewStreamReader(bytes.NewReader(data[:cut]))
		if err != nil {
			continue // truncated header: fine, as long as it errors
		}
		sawEOF := false
		for {
			_, err := sr.NextEpochInto(nil)
			if err == nil {
				continue
			}
			if err == io.EOF {
				sawEOF = true
			}
			break
		}
		if sawEOF {
			t.Fatalf("cut at %d/%d: truncated stream reported clean io.EOF", cut, len(data))
		}
	}
}

func TestStreamRejectsHeartbeat(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEpoch([][]Event{{{Kind: Heartbeat}}}); err == nil {
		t.Fatal("WriteEpoch accepted a heartbeat marker")
	}

	// A hand-forged frame containing a heartbeat must be rejected on read.
	forged := writeStreamRows(t, 1, [][][]Event{{{{Kind: Nop}}}}, nil)
	hb := bytes.Replace(forged, []byte{frameEpoch, 1, byte(Nop)}, []byte{frameEpoch, 1, byte(Heartbeat)}, 1)
	sr, err := NewStreamReader(bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.NextEpochInto(nil); err == nil {
		t.Fatal("NextEpochInto accepted a heartbeat marker")
	}
}

func TestStreamRowShapeChecked(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEpoch([][]Event{{}}); err == nil {
		t.Fatal("WriteEpoch accepted a row with the wrong thread count")
	}
	if err := sw.Close(nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteEpoch([][]Event{{}, {}}); err == nil {
		t.Fatal("WriteEpoch accepted a row after Close")
	}
}

// TestStreamTruncationSentinel pins the contract the remote client's retry
// logic depends on: a stream cut at ANY byte offset — inside the header,
// mid-frame, or mid-event — must surface an error matching
// errors.Is(err, io.ErrUnexpectedEOF), and must never match a clean io.EOF.
func TestStreamTruncationSentinel(t *testing.T) {
	rows := [][][]Event{
		{
			{{Kind: Write, Addr: 0x10, Size: 4}, {Kind: Alloc, Addr: 0x900, Size: 64}},
			{{Kind: Read, Addr: 0x10, Size: 4}},
		},
		{
			{},
			{{Kind: TaintSrc, Addr: 0x20, Size: 1}},
		},
	}
	data := writeStreamRows(t, 2, rows, []GlobalRef{{0, 0}, {1, 0}})
	for cut := 0; cut < len(data); cut++ {
		var err error
		sr, herr := NewStreamReader(bytes.NewReader(data[:cut]))
		if herr != nil {
			err = herr
		} else {
			for {
				_, nerr := sr.NextEpochInto(nil)
				if nerr != nil {
					err = nerr
					break
				}
			}
		}
		if err == nil {
			t.Fatalf("cut at %d/%d: no error", cut, len(data))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d/%d: error %v does not match io.ErrUnexpectedEOF", cut, len(data), err)
		}
	}
}

func TestEpochRowCodec(t *testing.T) {
	rows := [][][]Event{
		{{{Kind: Alloc, Addr: 0x100, Size: 16}}, {}},
		{{}, {{Kind: AssignBin, Addr: 0x1, Src1: 0x2, Src2: 0x3}, {Kind: Jump, Addr: 0x1}}},
		{{}, {}},
		{{{Kind: Write, Addr: math.MaxUint64, Size: 1 << 63, Src1: 127, Src2: 128, Cycle: 1 << 35}}, {}},
		// One event of the longest encoding, maxEventLen bytes.
		{{{Kind: Unlock, Addr: math.MaxUint64, Size: math.MaxUint64, Src1: math.MaxUint64, Src2: math.MaxUint64, Cycle: math.MaxUint64}}},
	}
	for _, row := range rows {
		data, err := AppendEpochRow(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if n := EpochRowLen(row); n != len(data) {
			t.Fatalf("EpochRowLen = %d, encoding has %d bytes", n, len(data))
		}
		got, err := DecodeEpochRowInto(data, len(row), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, row) {
			t.Fatalf("row codec round trip:\n got %v\nwant %v", got, row)
		}
		// Every truncation keeps the sentinel; trailing bytes are rejected.
		for cut := range len(data) {
			if _, err := DecodeEpochRowInto(data[:cut], len(row), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("row cut at %d/%d: got %v, want io.ErrUnexpectedEOF", cut, len(data), err)
			}
		}
		if _, err := DecodeEpochRowInto(append(data, 0x7), len(row), nil); err == nil {
			t.Fatal("row with trailing bytes decoded cleanly")
		}
	}
	if _, err := DecodeEpochRowInto([]byte{1, byte(Heartbeat), 0, 0, 0, 0, 0}, 1, nil); err == nil {
		t.Fatal("row with heartbeat marker decoded cleanly")
	}
	if _, err := AppendEpochRow(nil, [][]Event{{{Kind: Heartbeat}}}); err == nil {
		t.Fatal("AppendEpochRow encoded a heartbeat marker")
	}
}

// chunkReader hands out at most n bytes a Read, so a StreamReader's window
// ends at arbitrary places inside events, counts and frame headers.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// streamEpochs decodes a whole stream with NextEpochInto, copying each row.
func streamEpochs(t *testing.T, r io.Reader) ([][][]Event, []GlobalRef) {
	t.Helper()
	sr, err := NewStreamReader(r)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][][]Event
	for {
		row, err := sr.NextEpochInto(nil)
		if err == io.EOF {
			return rows, sr.Global()
		}
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
}

// TestStreamReaderWindow streams frames far larger than the reader's
// buffer, with values of every varint length, through reads of every
// awkward size: the window's fast path, its checked tail and its refills
// must deliver exactly the rows written.
func TestStreamReaderWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const T = 3
	var rows [][][]Event
	for l := 0; l < 4; l++ {
		row := make([][]Event, T)
		for th := range row {
			n := rng.Intn(3000)
			if l == 2 {
				n = 0
			}
			for range n {
				v := func() uint64 { return rng.Uint64() >> rng.Intn(64) }
				row[th] = append(row[th], Event{Kind: Kind(rng.Intn(int(Heartbeat))), Addr: v(), Size: v(), Src1: v(), Src2: v(), Cycle: v()})
			}
		}
		rows = append(rows, row)
	}
	global := []GlobalRef{{0, 1}, {2, 1 << 20}}
	data := writeStreamRows(t, T, rows, global)
	for _, n := range []int{1, 2, 7, 50, 51, 52, 4095, 4097, len(data)} {
		got, gotGlobal := streamEpochs(t, chunkReader{bytes.NewReader(data), n})
		if len(got) != len(rows) || !reflect.DeepEqual(gotGlobal, global) {
			t.Fatalf("reads of %d bytes: %d epochs, global %v", n, len(got), gotGlobal)
		}
		for l := range rows {
			if !rowsEqual(got[l], rows[l]) {
				t.Fatalf("reads of %d bytes: epoch %d differs", n, l)
			}
		}
	}
}

func TestStreamBadMagic(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader([]byte("BFLY1\x01"))); err == nil {
		t.Fatal("batch magic accepted as a stream")
	}
	if _, err := NewStreamReader(bytes.NewReader(nil)); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("empty input: got %v", err)
	}
}
