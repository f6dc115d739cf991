package proto

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"butterfly/internal/trace"
)

// FuzzServerFrameDecoder throws arbitrary bytes at the server's ingest path:
// the length-prefixed frame reader, then — per decoded frame — the payload
// parser the server would apply (JSON Hello, binary epoch row, ack). It
// mirrors FuzzStreamReader for the BFLYS1 codec: no input may panic, hang,
// or allocate proportionally to a forged length field, and every truncation
// must keep the io.ErrUnexpectedEOF sentinel the client's retry logic
// matches on.
func FuzzServerFrameDecoder(f *testing.F) {
	// Seed corpus: a realistic session prologue plus degenerate shapes.
	var session bytes.Buffer
	hello, _ := json.Marshal(Hello{Proto: Version, Lifeguard: "addrcheck", NumThreads: 2, AckedEpoch: -1})
	_ = WriteFrame(&session, FrameHello, hello)
	epochPayload, _ := EncodeEpoch(0, [][]trace.Event{
		{{Kind: trace.Alloc, Addr: 0x100, Size: 16}},
		{{Kind: trace.Read, Addr: 0x100, Size: 8}},
	})
	_ = WriteFrame(&session, FrameEpoch, epochPayload)
	_ = WriteFrame(&session, FrameEnd, nil)
	f.Add(session.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, byte(FrameEnd)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(session.Bytes()[:7])

	// Pooled-decode seed: epoch frames whose sizes swing — wide, then
	// zero-length rows, then wide again — so the reused FrameReader buffer
	// and row scratch carry stale bytes from a larger previous frame into
	// each decode.
	var pooled bytes.Buffer
	_ = WriteFrame(&pooled, FrameHello, hello)
	big := make([]trace.Event, 9)
	for i := range big {
		big[i] = trace.Event{Kind: trace.Write, Addr: uint64(0x200 + 8*i), Size: 8}
	}
	p1, _ := EncodeEpoch(0, [][]trace.Event{big, {{Kind: trace.Read, Addr: 0x100, Size: 8}}})
	_ = WriteFrame(&pooled, FrameEpoch, p1)
	p2, _ := EncodeEpoch(1, [][]trace.Event{{}, {}}) // zero-length rows
	_ = WriteFrame(&pooled, FrameEpoch, p2)
	p3, _ := EncodeEpoch(2, [][]trace.Event{{{Kind: trace.Free, Addr: 0x200, Size: 8}}, big})
	_ = WriteFrame(&pooled, FrameEpoch, p3)
	_ = WriteFrame(&pooled, FrameEnd, nil)
	f.Add(pooled.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		// The pooled reader runs in lockstep over a second copy of the
		// input: same frames, same payload bytes, same error class — even
		// though its payload buffer is reused (and therefore dirty) from
		// the previous frame.
		fr := NewFrameReader(bufio.NewReader(bytes.NewReader(data)))
		// Reused scratch for the pooled epoch decode, never cleared between
		// frames, so stale contents from earlier (possibly larger) rows are
		// lying in the spare capacity exactly like in the server's row pool.
		scratch := make([][]trace.Event, 2)
		for frames := 0; frames < 64; frames++ {
			ft, payload, err := ReadFrame(br)
			ft2, payload2, err2 := fr.Read()
			if (err == nil) != (err2 == nil) {
				t.Fatalf("pooled frame reader diverged: %v vs %v", err, err2)
			}
			if err != nil {
				if err != io.EOF && errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("frame error hides truncation behind clean io.EOF: %v", err)
				}
				return
			}
			if ft != ft2 || !bytes.Equal(payload, payload2) {
				t.Fatalf("pooled frame reader read a different frame: type %v/%v, %d/%d bytes",
					ft, ft2, len(payload), len(payload2))
			}
			// Parse the payload the way the server session loop would.
			switch ft {
			case FrameHello:
				var h Hello
				_ = json.Unmarshal(payload, &h)
			case FrameEpoch:
				num, row, err := DecodeEpochInto(payload, 2, nil)
				if err != nil &&
					errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("epoch decode error hides truncation: %v", err)
				}
				for t2 := range scratch {
					scratch[t2] = scratch[t2][:0]
				}
				num2, row2, err2 := DecodeEpochInto(payload2, 2, scratch)
				if (err == nil) != (err2 == nil) {
					t.Fatalf("pooled epoch decode diverged: %v vs %v", err, err2)
				}
				if err == nil {
					if num != num2 || len(row) != len(row2) {
						t.Fatalf("pooled epoch decode changed the frame: epoch %d/%d", num, num2)
					}
					for t3 := range row {
						if len(row[t3]) != len(row2[t3]) {
							t.Fatalf("pooled decode changed thread %d: %d vs %d events", t3, len(row[t3]), len(row2[t3]))
						}
						for i := range row[t3] {
							if row[t3][i] != row2[t3][i] {
								t.Fatalf("pooled decode changed thread %d event %d", t3, i)
							}
						}
					}
					copy(scratch, row2) // reuse grown backings, dirty, next frame
				}
			case FrameAck:
				_, _ = DecodeAck(payload)
			}
		}
	})
}
