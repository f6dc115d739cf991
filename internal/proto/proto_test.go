package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []struct {
		t FrameType
		p []byte
	}{
		{FrameHello, []byte(`{"proto":1}`)},
		{FrameEnd, nil},
		{FrameAck, EncodeAck(42)},
		{FrameEpoch, bytes.Repeat([]byte{0}, 1000)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f.t, f.p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, f := range frames {
		ft, payload, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if ft != f.t {
			t.Fatalf("frame type %v, want %v", ft, f.t)
		}
		want := f.p
		if want == nil {
			want = []byte{}
		}
		if !bytes.Equal(payload, want) {
			t.Fatalf("%v payload %q, want %q", ft, payload, want)
		}
	}
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}

// TestFrameTruncationSentinel mirrors the trace codec's contract: a frame
// stream cut at any non-boundary offset yields io.ErrUnexpectedEOF, never a
// clean io.EOF.
func TestFrameTruncationSentinel(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameEpoch, []byte("some epoch bytes")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, FrameEnd, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		br := bufio.NewReader(bytes.NewReader(data[:cut]))
		var err error
		for err == nil {
			_, _, err = ReadFrame(br)
		}
		boundary := cut == 0 || cut == 21 // frame boundaries
		if boundary {
			if err != io.EOF {
				t.Fatalf("cut at boundary %d: got %v, want io.EOF", cut, err)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameGuards(t *testing.T) {
	if err := WriteFrame(io.Discard, FrameEpoch, make([]byte, MaxFrame)); err == nil {
		t.Error("WriteFrame accepted an oversized payload")
	}
	var hdr [5]byte
	hdr[3] = 0 // length 0
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr[:4]))); err == nil {
		t.Error("ReadFrame accepted a zero-length frame")
	}
	big := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(big))); err == nil {
		t.Error("ReadFrame accepted an oversized length")
	}
}

func TestEpochPayloadRoundTrip(t *testing.T) {
	row := [][]trace.Event{
		{{Kind: trace.Alloc, Addr: 0x100, Size: 16}, {Kind: trace.Write, Addr: 0x100, Size: 8}},
		{},
		{{Kind: trace.AssignUn, Addr: 1, Src1: 2}},
	}
	payload, err := EncodeEpoch(7, row)
	if err != nil {
		t.Fatal(err)
	}
	num, got, err := DecodeEpochInto(payload, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if num != 7 || !reflect.DeepEqual(got, row) {
		t.Fatalf("epoch payload round trip: epoch=%d rows=%v", num, got)
	}
	if _, _, err := DecodeEpochInto(payload, 2, nil); err == nil {
		t.Error("DecodeEpochInto accepted the wrong thread count")
	}
	if _, err := DecodeAck(EncodeAck(12345)); err != nil {
		t.Fatal(err)
	}
	if n, _ := DecodeAck(EncodeAck(12345)); n != 12345 {
		t.Fatalf("ack round trip: %d", n)
	}
	if _, err := DecodeAck(nil); err == nil {
		t.Error("DecodeAck accepted an empty payload")
	}
}

// TestEpochCodecAllocs gates the Epoch payload's allocations: EncodeEpoch
// sizes its payload first and allocates it once, and DecodeEpochInto into a
// warm row allocates nothing.
func TestEpochCodecAllocs(t *testing.T) {
	if sets.RaceEnabled {
		t.Skip("race detector instruments allocations; counts are not meaningful")
	}
	row := make([][]trace.Event, 4)
	for th := range row {
		for i := range 512 {
			row[th] = append(row[th], trace.Event{Kind: trace.Read, Addr: 1<<28 + uint64(i)*200, Size: 8, Cycle: uint64(i) << 20})
		}
	}
	var payload []byte
	enc := testing.AllocsPerRun(50, func() {
		var err error
		if payload, err = EncodeEpoch(1<<30, row); err != nil {
			t.Fatal(err)
		}
	})
	if enc > 1 {
		t.Errorf("EncodeEpoch of a %d-event row: %v allocations, want at most 1", 4*512, enc)
	}
	if slack := cap(payload) - len(payload); slack >= binary.MaxVarintLen64 {
		t.Errorf("EncodeEpoch payload: %d bytes with %d spare, want it sized to the encoding", len(payload), slack)
	}
	into := make([][]trace.Event, 4)
	dec := testing.AllocsPerRun(50, func() {
		_, got, err := DecodeEpochInto(payload, 4, into)
		if err != nil {
			t.Fatal(err)
		}
		copy(into, got)
	})
	if dec != 0 {
		t.Errorf("DecodeEpochInto into a warm row: %v allocations, want 0", dec)
	}
	if !reflect.DeepEqual(into, row) {
		t.Fatal("decoded row differs from the encoded one")
	}
}

// TestReportJSONRoundTrip pins that core.Report survives the wire exactly,
// including large uint64 addresses: the differential soak tests rely on
// byte-identical reports.
func TestReportJSONRoundTrip(t *testing.T) {
	in := Reports{Epoch: 3, Reports: []core.Report{{
		Ref:    trace.Ref{Epoch: 3, Thread: 2, Index: 41},
		Ev:     trace.Event{Kind: trace.Write, Addr: 1<<63 + 12345, Size: 8, Src1: 7, Src2: 9, Cycle: 1 << 40},
		Code:   "addrcheck.unallocated-access",
		Detail: "write of 8 bytes at 0x8000000000003039",
	}}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Reports
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("report round trip:\n got %#v\nwant %#v", out, in)
	}
}

func TestHelloTraceIDRoundTrip(t *testing.T) {
	h := Hello{
		Proto:      Version,
		Lifeguard:  "addrcheck",
		NumThreads: 4,
		TraceID:    "deadbeef01234567",
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"trace_id":"deadbeef01234567"`)) {
		t.Errorf("marshaled Hello lacks trace_id: %s", b)
	}
	var got Hello
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != h.TraceID {
		t.Errorf("TraceID round-trip = %q, want %q", got.TraceID, h.TraceID)
	}

	// Absent field stays absent on the wire (old clients) and decodes to "".
	b, err = json.Marshal(Hello{Proto: Version, Lifeguard: "memcheck", NumThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("trace_id")) {
		t.Errorf("empty TraceID serialized: %s", b)
	}
	var legacy Hello
	if err := json.Unmarshal([]byte(`{"proto":1,"lifeguard":"memcheck","num_threads":2}`), &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.TraceID != "" {
		t.Errorf("legacy Hello TraceID = %q, want empty", legacy.TraceID)
	}
}

// scriptedReader hands out its chunks one per Read call, so a test decides
// exactly what a bufio.Reader has buffered.
type scriptedReader struct{ chunks [][]byte }

func (r *scriptedReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestFrameReaderReady pins Ready: true exactly when the next frame's
// length and whole body are buffered, never for a header alone, a partial
// body, or a frame larger than the buffer.
func TestFrameReaderReady(t *testing.T) {
	frame := func(ft FrameType, n int) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, ft, bytes.Repeat([]byte{7}, n)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b, c, big := frame(FrameEpoch, 40), frame(FrameEpoch, 50), frame(FrameEpoch, 60), frame(FrameEpoch, 10<<10)
	first := append(append(append([]byte{}, a...), b...), c[:2]...) // A, B, half of C's length
	src := &scriptedReader{chunks: [][]byte{first, c[2:20], c[20:], append(frame(FrameAck, 3), big...)}}
	fr := NewFrameReader(bufio.NewReaderSize(src, 4096))
	steps := []struct {
		size  int  // payload length Read must return
		ready bool // Ready after that Read
	}{
		{40, true},  // B sits whole behind A
		{50, false}, // two bytes of C's length
		{60, false}, // C's body arrived in two more reads; nothing behind it
		{3, false},  // a 10 KiB frame can never sit whole in a 4 KiB buffer
		{10 << 10, false},
	}
	if fr.Ready() {
		t.Fatal("Ready before any input arrived")
	}
	for i, st := range steps {
		_, p, err := fr.Read()
		if err != nil || len(p) != st.size {
			t.Fatalf("step %d: read %d bytes, err %v; want %d", i, len(p), err, st.size)
		}
		if got := fr.Ready(); got != st.ready {
			t.Fatalf("step %d: Ready() = %v, want %v", i, got, st.ready)
		}
	}
	if _, _, err := fr.Read(); err != io.EOF {
		t.Fatalf("exhausted stream: got %v, want io.EOF", err)
	}
}
