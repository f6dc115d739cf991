package proto

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"unicode/utf8"

	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// nastyStrings exercises every escaping branch: quotes, backslashes,
// controls, the HTML trio, multibyte runes, invalid UTF-8 and the JS
// line-separator pair.
var nastyStrings = []string{
	"",
	"plain ascii detail",
	`access to "0x100" <unallocated>`,
	"a&b<c>d",
	"tab\there\nnewline\rcr",
	"ctrl\x01\x1f end",
	"back\\slash and \"quote\"",
	"héllo wörld — ünïcode",
	"日本語テキスト",
	"emoji \U0001F41B bug",
	"bad utf8 \xff\xfe mid",
	"line sep   and   end",
	"trailing backslash \\",
	"\x00zero",
}

func randString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	n := rng.Intn(40)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

func randReports(rng *rand.Rand) Reports {
	r := Reports{Epoch: rng.Intn(1 << 20)}
	if rng.Intn(10) == 0 {
		return r // nil Reports slice
	}
	n := rng.Intn(6)
	r.Reports = make([]core.Report, 0, n)
	for i := 0; i < n; i++ {
		r.Reports = append(r.Reports, core.Report{
			Ref: trace.Ref{
				Epoch:  rng.Intn(1 << 16),
				Thread: trace.ThreadID(rng.Intn(64)),
				Index:  rng.Intn(1 << 16),
			},
			Ev: trace.Event{
				Kind:  trace.Kind(rng.Intn(256)),
				Addr:  rng.Uint64(),
				Size:  rng.Uint64() % 4096,
				Src1:  rng.Uint64(),
				Src2:  rng.Uint64(),
				Cycle: rng.Uint64(),
			},
			Code:   randString(rng),
			Detail: randString(rng),
		})
	}
	return r
}

// TestReportsMarshalMatchesStdlib checks the hand-rolled encoder emits the
// exact bytes encoding/json would, across adversarial string contents.
func TestReportsMarshalMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		r := randReports(rng)
		fast, err := r.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
		std, err := json.Marshal(reportsAlias(r))
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if !bytes.Equal(fast, std) {
			t.Fatalf("iter %d: encoder mismatch\nfast: %q\nstd:  %q\ninput: %+v", i, fast, std, r)
		}
	}
}

// TestReportsRoundTrip checks the fast parser recovers the original value
// from the fast encoder's output.
func TestReportsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		r := randReports(rng)
		data, err := json.Marshal(r) // dispatches to MarshalJSON
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Reports
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		// Strings from randString may contain invalid UTF-8, which marshal
		// maps to U+FFFD — normalize the expectation the same way stdlib
		// round-trips would.
		want := r
		if len(want.Reports) > 0 {
			want.Reports = append([]core.Report(nil), want.Reports...)
			for j := range want.Reports {
				want.Reports[j].Code = toValidUTF8(want.Reports[j].Code)
				want.Reports[j].Detail = toValidUTF8(want.Reports[j].Detail)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: round-trip mismatch\ngot:  %+v\nwant: %+v\nwire: %q", i, got, want, data)
		}
	}
}

// toValidUTF8 replaces each invalid byte with U+FFFD, matching the
// per-byte behavior of encoding/json's encoder (bytes.ToValidUTF8
// collapses runs, which is not what stdlib does).
func toValidUTF8(s string) string {
	var b []byte
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, "�"...)
			i++
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return string(b)
}

// TestReportsUnmarshalForeignShapes checks the stdlib fallback engages for
// JSON the fast parser does not recognize.
func TestReportsUnmarshalForeignShapes(t *testing.T) {
	want := Reports{Epoch: 5, Reports: []core.Report{{
		Ref:  trace.Ref{Epoch: 1, Thread: 2, Index: 3},
		Ev:   trace.Event{Kind: 4, Addr: 5, Size: 6, Src1: 7, Src2: 8, Cycle: 9},
		Code: "c", Detail: "d",
	}}}
	cases := []string{
		// Reordered envelope keys.
		`{"reports":[{"Ref":{"Epoch":1,"Thread":2,"Index":3},"Ev":{"Kind":4,"Addr":5,"Size":6,"Src1":7,"Src2":8,"Cycle":9},"Code":"c","Detail":"d"}],"epoch":5}`,
		// Whitespace everywhere.
		"{ \"epoch\" : 5 , \"reports\" : [ { \"Ref\" : { \"Epoch\" :1, \"Thread\" :2, \"Index\" :3}, \"Ev\" : { \"Kind\" :4, \"Addr\" :5, \"Size\" :6, \"Src1\" :7, \"Src2\" :8, \"Cycle\" :9}, \"Code\" : \"c\", \"Detail\" : \"d\" } ] }",
		// Indented (json.MarshalIndent style).
		"{\n  \"epoch\": 5,\n  \"reports\": [\n    {\n      \"Ref\": {\"Epoch\": 1, \"Thread\": 2, \"Index\": 3},\n      \"Ev\": {\"Kind\": 4, \"Addr\": 5, \"Size\": 6, \"Src1\": 7, \"Src2\": 8, \"Cycle\": 9},\n      \"Code\": \"c\",\n      \"Detail\": \"d\"\n    }\n  ]\n}",
	}
	for i, c := range cases {
		var got Reports
		if err := json.Unmarshal([]byte(c), &got); err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
	}
	var bad Reports
	if err := json.Unmarshal([]byte(`{"epoch":"not a number"}`), &bad); err == nil {
		t.Fatal("expected error for malformed frame")
	}
}

// TestReportsUnmarshalEscapes drives the slow string path: every escape
// form stdlib can emit or accept, including surrogate pairs.
func TestReportsUnmarshalEscapes(t *testing.T) {
	in := `{"epoch":1,"reports":[{"Ref":{"Epoch":0,"Thread":0,"Index":0},"Ev":{"Kind":0,"Addr":0,"Size":0,"Src1":0,"Src2":0,"Cycle":0},"Code":"A\\\"\/\b\f\n\r\t🐛","Detail":"<x>&"}]}`
	var got Reports
	if err := json.Unmarshal([]byte(in), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	wantCode := "A\\\"/\b\f\n\r\t\U0001F41B"
	if got.Reports[0].Code != wantCode {
		t.Errorf("Code = %q, want %q", got.Reports[0].Code, wantCode)
	}
	if got.Reports[0].Detail != "<x>&" {
		t.Errorf("Detail = %q, want %q", got.Reports[0].Detail, "<x>&")
	}
	// Lone surrogate: both parsers map it to U+FFFD.
	in2 := `{"epoch":1,"reports":[{"Ref":{"Epoch":0,"Thread":0,"Index":0},"Ev":{"Kind":0,"Addr":0,"Size":0,"Src1":0,"Src2":0,"Cycle":0},"Code":"x\ud800y","Detail":""}]}`
	var got2 Reports
	if err := json.Unmarshal([]byte(in2), &got2); err != nil {
		t.Fatalf("unmarshal lone surrogate: %v", err)
	}
	if want := "x�y"; got2.Reports[0].Code != want {
		t.Errorf("lone surrogate Code = %q, want %q", got2.Reports[0].Code, want)
	}
	// Lone high surrogate followed by another escape: stdlib reprocesses
	// the second escape on its own ("\ud800A" decodes to "�A").
	// The fast parser must agree on every input it accepts.
	frame := func(code string) string {
		return `{"epoch":1,"reports":[{"Ref":{"Epoch":0,"Thread":0,"Index":0},"Ev":{"Kind":0,"Addr":0,"Size":0,"Src1":0,"Src2":0,"Cycle":0},"Code":"` + code + `","Detail":""}]}`
	}
	for _, esc := range []string{
		`\ud800A`, `\ud800\ud800`, `\ud800\udc00`, `\udc00tail`, `🐛`,
	} {
		in := frame(esc)
		fast, ok := parseReportsFast([]byte(in))
		if !ok {
			t.Fatalf("fast parser rejected %q", esc)
		}
		var std reportsAlias
		if err := json.Unmarshal([]byte(in), &std); err != nil {
			t.Fatalf("stdlib rejected %q: %v", esc, err)
		}
		if fast.Reports[0].Code != std.Reports[0].Code {
			t.Errorf("escape %q: fast %q, stdlib %q", esc, fast.Reports[0].Code, std.Reports[0].Code)
		}
	}
}

func BenchmarkReportsMarshal(b *testing.B) {
	r := Reports{Epoch: 17, Reports: make([]core.Report, 8)}
	for i := range r.Reports {
		r.Reports[i] = core.Report{
			Ref:    trace.Ref{Epoch: 15, Thread: trace.ThreadID(i), Index: 100 + i},
			Ev:     trace.Event{Kind: 2, Addr: 0x1000, Size: 8, Cycle: uint64(i)},
			Code:   "addrcheck.unallocated-access",
			Detail: `access to "0x1000" <unallocated>`,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReportsUnmarshal(b *testing.B) {
	r := Reports{Epoch: 17, Reports: make([]core.Report, 8)}
	for i := range r.Reports {
		r.Reports[i] = core.Report{
			Ref:    trace.Ref{Epoch: 15, Thread: trace.ThreadID(i), Index: 100 + i},
			Ev:     trace.Event{Kind: 2, Addr: 0x1000, Size: 8, Cycle: uint64(i)},
			Code:   "addrcheck.unallocated-access",
			Detail: `access to "0x1000" <unallocated>`,
		}
	}
	data, err := json.Marshal(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var got Reports
		if err := json.Unmarshal(data, &got); err != nil {
			b.Fatal(err)
		}
	}
}

// fuzzReports builds a frame from fuzz inputs: up to seven reports whose
// codes come in runs (so the decoder's code reuse both hits and misses) and
// whose details are consecutive pieces of detail, cut anywhere — mid-rune
// too. n ≥ 128 with no reports gives a nil slice, else an empty one.
func fuzzReports(epoch int, n, kind uint8, addr uint64, code, detail string) Reports {
	r := Reports{Epoch: epoch}
	count := int(n % 8)
	if count == 0 && n >= 128 {
		return r
	}
	r.Reports = make([]core.Report, count)
	for i := range r.Reports {
		r.Reports[i] = core.Report{
			Ref: trace.Ref{Epoch: epoch - i, Thread: trace.ThreadID(int(kind) - i), Index: int(addr >> 2)},
			Ev: trace.Event{Kind: trace.Kind(kind + uint8(i)), Addr: addr + uint64(i), Size: addr >> i,
				Src1: ^addr, Src2: uint64(i), Cycle: addr * uint64(i)},
			Code:   []string{code, code, detail, code}[i%4],
			Detail: detail[i*len(detail)/count : (i+1)*len(detail)/count],
		}
	}
	return r
}

// FuzzReportsJSON is the differential check of the Reports codec. For a
// frame built from the inputs: AppendJSON writes encoding/json's bytes, and
// DecodeReports reads them back to the frame (invalid UTF-8 normalised as
// the encoder maps it). For the raw payload, and the encoded frame: whenever
// the fast parser and the encoding/json fallback both accept, they agree.
func FuzzReportsJSON(f *testing.F) {
	f.Add(17, uint8(3), uint8(trace.Read), uint64(0x1000), "addrcheck.unallocated-access",
		"read of [0x1000,0x1008) not within allocated memorywrite of [0x2000,0x2008) not within allocated memory",
		[]byte(`{"epoch":5,"reports":null}`))
	f.Add(0, uint8(128), uint8(0), uint64(0), "", "", []byte(`{"epoch":1,"reports":[]}`))
	f.Add(-1, uint8(7), uint8(255), uint64(1<<64-1), "c", "\xff\xfe", []byte(`{"epoch":1,"reports":[{"Ref":{"Epoch":0,"Thread":0,"Index":0},"Ev":{"Kind":0,"Addr":0,"Size":0,"Src1":0,"Src2":0,"Cycle":0},"Code":"x\ud800y","Detail":"\xff"}]}`))
	for i, s := range nastyStrings {
		f.Add(i, uint8(i), uint8(i), uint64(i)<<60, s, s+s, []byte(`{"epoch":1,"reports":[{"Ref":{"Epoch":0,"Thread":0,"Index":0},"Ev":{"Kind":0,"Addr":0,"Size":0,"Src1":0,"Src2":0,"Cycle":0},"Code":"`+s+`","Detail":"d"}]}`))
	}
	f.Fuzz(func(t *testing.T, epoch int, n, kind uint8, addr uint64, code, detail string, payload []byte) {
		r := fuzzReports(epoch, n, kind, addr, code, detail)
		enc := r.AppendJSON(nil)
		std, err := json.Marshal(reportsAlias(r))
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if !bytes.Equal(enc, std) {
			t.Fatalf("AppendJSON differs from encoding/json\nfast: %q\nstd:  %q", enc, std)
		}
		want := r
		if r.Reports != nil {
			want.Reports = append([]core.Report{}, r.Reports...)
			for j := range want.Reports {
				want.Reports[j].Code = toValidUTF8(want.Reports[j].Code)
				want.Reports[j].Detail = toValidUTF8(want.Reports[j].Detail)
			}
		}
		fast, ok := parseReportsFast(enc)
		if !ok {
			t.Fatalf("fast parser rejected AppendJSON output %q", enc)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("round trip\ngot:  %+v\nwant: %+v\nwire: %q", fast, want, enc)
		}
		for _, data := range [][]byte{payload, enc} {
			fast, fastOK := parseReportsFast(data)
			var std reportsAlias
			if !fastOK || json.Unmarshal(data, &std) != nil {
				continue
			}
			if !reflect.DeepEqual(fast, Reports(std)) {
				t.Fatalf("fast and encoding/json disagree on %q\nfast: %+v\nstd:  %+v", data, fast, std)
			}
		}
	})
}

// floodFrame is a 512-report frame shaped like a firing AddrCheck's.
func floodFrame() Reports {
	r := Reports{Epoch: 1234, Reports: make([]core.Report, 512)}
	for i := range r.Reports {
		addr := 0x10000 + uint64(i)*128 + 64
		r.Reports[i] = core.Report{
			Ref:  trace.Ref{Epoch: 1233, Thread: trace.ThreadID(i % 4), Index: i / 4},
			Ev:   trace.Event{Kind: trace.Read, Addr: addr, Size: 8, Cycle: uint64(i)},
			Code: "addrcheck.unallocated-access",
			Detail: "read of [0x" + strconv.FormatUint(addr, 16) + ",0x" + strconv.FormatUint(addr+8, 16) +
				") not within allocated memory",
		}
	}
	return r
}

// TestReportsCodecAllocs gates the report path's wire layer: encoding a
// frame into a warmed buffer allocates nothing, and decoding one costs a
// fixed few allocations — the slice, the frame's one Detail string, and
// the one Code — however many reports it carries.
func TestReportsCodecAllocs(t *testing.T) {
	if sets.RaceEnabled {
		t.Skip("race detector instruments allocations; counts are not meaningful")
	}
	r := floodFrame()
	buf := r.AppendJSON(nil)
	enc := testing.AllocsPerRun(50, func() { buf = r.AppendJSON(buf[:0]) })
	if enc != 0 {
		t.Errorf("encoding a %d-report frame into a warm buffer: %v allocations, want 0", len(r.Reports), enc)
	}
	var got Reports
	dec := testing.AllocsPerRun(50, func() {
		if err := DecodeReports(buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, r) {
		t.Fatal("decoded frame differs from the encoded one")
	}
	if dec > 3 {
		t.Errorf("decoding a %d-report frame: %v allocations, want at most 3", len(r.Reports), dec)
	}
	t.Logf("512-report frame of %d bytes: encode %v, decode %v allocations", len(buf), enc, dec)
}

// BenchmarkReportsFlood times one 512-report frame each way: encoding into
// a warm buffer, as butterflyd does, and decoding, as the client does.
func BenchmarkReportsFlood(b *testing.B) {
	r := floodFrame()
	buf := r.AppendJSON(nil)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buf = r.AppendJSON(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		var got Reports
		for b.Loop() {
			if err := DecodeReports(buf, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestMinReportJSON pins minReportJSON to the shortest report the encoder
// can produce.
func TestMinReportJSON(t *testing.T) {
	b := appendReport(nil, &core.Report{})
	if len(b) != minReportJSON {
		t.Fatalf("shortest report is %d bytes (%s), minReportJSON is %d", len(b), b, minReportJSON)
	}
}
