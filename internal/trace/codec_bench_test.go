package trace_test

// Layer microbenchmarks and allocation gates for the event codec, over
// rows shaped like the benchmark's workloads:
//
//	go test ./internal/trace -run XXX -bench 'DecodeEpochRow|StreamReader|EncodeEpoch' -benchmem

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"butterfly/internal/apps"
	"butterfly/internal/epoch"
	"butterfly/internal/machine"
	"butterfly/internal/proto"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

const shapeThreads = 4

// paperAppsRows are epoch rows shaped like the paper-apps workload: the
// middle epoch of each internal/apps analog on the simulated machine, four
// threads, a heartbeat every 2048 instructions per thread. Events carry
// their issue cycles, so most rows need multi-byte varints.
func paperAppsRows(tb testing.TB) [][][]trace.Event {
	tb.Helper()
	var rows [][][]trace.Event
	for _, app := range apps.All {
		p, err := app.Build(apps.Params{Threads: shapeThreads, TargetOps: 16384, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		cfg := machine.Table1Config(shapeThreads)
		cfg.Seed = 1
		cfg.HeartbeatH = 2048
		res, err := machine.Run(p, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		g, err := epoch.ChunkByHeartbeat(res.Trace)
		if err != nil {
			tb.Fatal(err)
		}
		row := make([][]trace.Event, shapeThreads)
		for t, b := range g.Blocks[g.NumEpochs()/2] {
			row[t] = b.Events
		}
		rows = append(rows, row)
	}
	return rows
}

// smallEpochsRows are rows shaped like the small-epochs workload: 32
// 8-byte reads and writes a thread into a heap of 4096 64-byte slots, one
// every 128 bytes.
func smallEpochsRows(tb testing.TB) [][][]trace.Event {
	rng := rand.New(rand.NewSource(1))
	rows := make([][][]trace.Event, 64)
	for l := range rows {
		rows[l] = make([][]trace.Event, shapeThreads)
		for t := range rows[l] {
			for range 32 {
				kind := trace.Read
				if rng.Intn(2) == 0 {
					kind = trace.Write
				}
				addr := 1<<28 + uint64(rng.Intn(4096))*128 + uint64(rng.Intn(8))*8
				rows[l][t] = append(rows[l][t], trace.Event{Kind: kind, Addr: addr, Size: 8})
			}
		}
	}
	return rows
}

var shapes = []struct {
	name string
	rows func(testing.TB) [][][]trace.Event
}{
	{"paper-apps", paperAppsRows},
	{"small-epochs", smallEpochsRows},
}

func countEvents(rows [][][]trace.Event) int {
	n := 0
	for _, row := range rows {
		for _, evs := range row {
			n += len(evs)
		}
	}
	return n
}

// encodeRows returns each row's epoch-frame body.
func encodeRows(tb testing.TB, rows [][][]trace.Event) [][]byte {
	out := make([][]byte, len(rows))
	for i, row := range rows {
		var err error
		if out[i], err = trace.AppendEpochRow(nil, row); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// encodeStream returns rows as a BFLYS1 stream, repeated reps times.
func encodeStream(tb testing.TB, rows [][][]trace.Event, reps int) []byte {
	var buf bytes.Buffer
	sw, err := trace.NewStreamWriter(&buf, shapeThreads)
	if err != nil {
		tb.Fatal(err)
	}
	for range reps {
		for _, row := range rows {
			if err := sw.WriteEpoch(row); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := sw.Close(nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func reportNsPerEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkDecodeEpochRow decodes Epoch frame bodies into warm rows, as
// butterflyd's step and WAL replay do.
func BenchmarkDecodeEpochRow(b *testing.B) {
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rows := sh.rows(b)
			data := encodeRows(b, rows)
			into := make([][]trace.Event, shapeThreads)
			b.ReportAllocs()
			for b.Loop() {
				for _, d := range data {
					row, err := trace.DecodeEpochRowInto(d, shapeThreads, into)
					if err != nil {
						b.Fatal(err)
					}
					copy(into, row)
				}
			}
			reportNsPerEvent(b, countEvents(rows))
		})
	}
}

// BenchmarkStreamReader decodes a whole BFLYS1 stream into warm rows, as
// Driver.RunStream's row source does.
func BenchmarkStreamReader(b *testing.B) {
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rows := sh.rows(b)
			const reps = 4
			data := encodeStream(b, rows, reps)
			into := make([][]trace.Event, shapeThreads)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				sr, err := trace.NewStreamReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				for {
					row, err := sr.NextEpochInto(into)
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					copy(into, row)
				}
			}
			reportNsPerEvent(b, reps*countEvents(rows))
		})
	}
}

// BenchmarkEncodeEpoch builds Epoch frame payloads, as the client does for
// every epoch it sends.
func BenchmarkEncodeEpoch(b *testing.B) {
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			rows := sh.rows(b)
			b.ReportAllocs()
			for b.Loop() {
				for num, row := range rows {
					if _, err := proto.EncodeEpoch(num, row); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportNsPerEvent(b, countEvents(rows))
		})
	}
}

// TestCodecAllocs gates the decode paths' allocations: decoding an Epoch
// frame body into a warm row, and a stream's next epoch into a warm row,
// allocate nothing.
func TestCodecAllocs(t *testing.T) {
	if sets.RaceEnabled {
		t.Skip("race detector instruments allocations; counts are not meaningful")
	}
	rows := smallEpochsRows(t)
	data := encodeRows(t, rows)
	into := make([][]trace.Event, shapeThreads)
	i := 0
	decode := func() {
		row, err := trace.DecodeEpochRowInto(data[i%len(data)], shapeThreads, into)
		if err != nil {
			t.Fatal(err)
		}
		copy(into, row)
		i++
	}
	decode()
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("DecodeEpochRowInto into a warm row: %v allocations, want 0", n)
	}

	sr, err := trace.NewStreamReader(bytes.NewReader(encodeStream(t, rows, 4)))
	if err != nil {
		t.Fatal(err)
	}
	next := func() {
		row, err := sr.NextEpochInto(into)
		if err != nil {
			t.Fatal(err)
		}
		copy(into, row)
	}
	next()
	if n := testing.AllocsPerRun(100, next); n != 0 {
		t.Errorf("StreamReader.NextEpochInto into a warm row: %v allocations, want 0", n)
	}
}
