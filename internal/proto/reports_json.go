package proto

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"butterfly/internal/core"
	"butterfly/internal/trace"
)

// Report frames dominate the wire when a lifeguard is firing, and the
// reflective encoding/json paths dominate the CPU profile when they do. The
// frame shape is fixed — two ints of envelope plus a flat array of
// integer-field structs and two strings — so both directions are hand
// rolled here. MarshalJSON is byte-identical to encoding/json's output
// (including its HTML escaping), and UnmarshalJSON parses exactly that
// shape, falling back to encoding/json on the first unexpected byte so
// foreign producers (whitespace, reordered keys) still decode.

// reportsAlias strips the methods so the fallback paths reach the
// reflective stdlib implementation instead of recursing.
type reportsAlias Reports

// MarshalJSON encodes the frame without reflection.
func (r Reports) MarshalJSON() ([]byte, error) {
	n := 32
	for i := range r.Reports {
		// Keys and punctuation take 116 bytes, the numbers typically under
		// 60; escapes are rare.
		n += 176 + len(r.Reports[i].Code) + len(r.Reports[i].Detail)
	}
	return r.AppendJSON(make([]byte, 0, n)), nil
}

// AppendJSON appends the frame's JSON encoding — MarshalJSON's bytes — to
// b. Writers that keep b between frames encode without allocating once it
// has grown to their largest frame.
func (r Reports) AppendJSON(b []byte) []byte {
	b = append(b, `{"epoch":`...)
	b = strconv.AppendInt(b, int64(r.Epoch), 10)
	b = append(b, `,"reports":`...)
	if r.Reports == nil {
		return append(b, `null}`...)
	}
	b = append(b, '[')
	for i := range r.Reports {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendReport(b, &r.Reports[i])
	}
	return append(b, `]}`...)
}

func appendReport(b []byte, rep *core.Report) []byte {
	b = append(b, `{"Ref":{"Epoch":`...)
	b = strconv.AppendInt(b, int64(rep.Ref.Epoch), 10)
	b = append(b, `,"Thread":`...)
	b = strconv.AppendInt(b, int64(rep.Ref.Thread), 10)
	b = append(b, `,"Index":`...)
	b = strconv.AppendInt(b, int64(rep.Ref.Index), 10)
	b = append(b, `},"Ev":{"Kind":`...)
	b = strconv.AppendUint(b, uint64(rep.Ev.Kind), 10)
	b = append(b, `,"Addr":`...)
	b = strconv.AppendUint(b, rep.Ev.Addr, 10)
	b = append(b, `,"Size":`...)
	b = strconv.AppendUint(b, rep.Ev.Size, 10)
	b = append(b, `,"Src1":`...)
	b = strconv.AppendUint(b, rep.Ev.Src1, 10)
	b = append(b, `,"Src2":`...)
	b = strconv.AppendUint(b, rep.Ev.Src2, 10)
	b = append(b, `,"Cycle":`...)
	b = strconv.AppendUint(b, rep.Ev.Cycle, 10)
	b = append(b, `},"Code":`...)
	b = appendJSONString(b, rep.Code)
	b = append(b, `,"Detail":`...)
	b = appendJSONString(b, rep.Detail)
	return append(b, '}')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string holds verbatim:
// encoding/json's htmlSafeSet.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// strPlain marks the bytes the decoder copies without a second look: ASCII
// that neither ends a string, nor escapes, nor is a control byte.
var strPlain = func() (plain [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return plain
}()

// appendJSONString mirrors encoding/json's string encoder with HTML
// escaping on: quote, backslash and controls are escaped (\n, \r, \t get
// short forms), '<', '>' and '&' become \u00XX, invalid UTF-8 becomes
// U+FFFD, and U+2028/U+2029 are escaped for JS embedding.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// UnmarshalJSON decodes a frame, preferring the strict fast parser for the
// exact shape MarshalJSON (and encoding/json, which it matches) emits.
func (r *Reports) UnmarshalJSON(data []byte) error {
	return DecodeReports(data, r)
}

// DecodeReports parses a Reports frame payload into r. Callers on the frame
// hot path use it directly instead of json.Unmarshal: going through the
// stdlib entry point costs a full validity scan of the payload before the
// fast parser even runs.
func DecodeReports(data []byte, r *Reports) error {
	if rr, ok := parseReportsFast(data); ok {
		*r = rr
		return nil
	}
	var a reportsAlias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*r = Reports(a)
	return nil
}

// rscan is a cursor over a fast-path frame. Every helper reports failure
// instead of erroring; the caller falls back to encoding/json.
type rscan struct {
	b []byte
	i int
}

// lit consumes the exact literal l.
func (s *rscan) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// int64v consumes a (possibly negative) decimal integer.
func (s *rscan) int64v() (int64, bool) {
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	u, ok := s.uint64v()
	if !ok {
		return 0, false
	}
	if neg {
		if u > 1<<63 {
			return 0, false
		}
		return -int64(u), true
	}
	if u > 1<<63-1 {
		return 0, false
	}
	return int64(u), true
}

// uint64v consumes a decimal unsigned integer, rejecting overflow so the
// fallback parser gets to produce the error.
func (s *rscan) uint64v() (uint64, bool) {
	b, i := s.b, s.i
	var v uint64
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		if v > (1<<64-1)/10 {
			return 0, false
		}
		v = v*10 + d
		if v < d {
			return 0, false
		}
	}
	if i == s.i {
		return 0, false
	}
	s.i = i
	return v, true
}

// appendStr consumes a quoted JSON string and appends its decoded bytes to
// dst (never aliasing the frame: payloads live in reused decoder buffers).
// It decodes as encoding/json does — escapes, surrogate pairs, and each
// invalid UTF-8 byte as U+FFFD — so the fast path and the fallback agree on
// every string both accept.
func (s *rscan) appendStr(dst []byte) ([]byte, bool) {
	b, i := s.b, s.i // locals: this loop is the decoder's hottest
	if i >= len(b) || b[i] != '"' {
		return dst, false
	}
	i++
	start := i
	for i < len(b) {
		c := b[i]
		if strPlain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			s.i = i + 1
			return append(dst, b[start:i]...), true
		case c < 0x20:
			return dst, false
		case c == '\\':
			dst = append(dst, b[start:i]...)
			s.i = i
			var ok bool
			if dst, ok = s.appendEscape(dst); !ok {
				return dst, false
			}
			i, start = s.i, s.i
		default: // non-ASCII
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(append(dst, b[start:i]...), "\uFFFD"...)
				start = i + 1
			}
			i += size
		}
	}
	return dst, false
}

// appendEscape consumes one backslash escape and appends what it decodes to.
func (s *rscan) appendEscape(dst []byte) ([]byte, bool) {
	s.i++ // the backslash
	if s.i >= len(s.b) {
		return dst, false
	}
	e := s.b[s.i]
	s.i++
	switch e {
	case '"', '\\', '/':
		return append(dst, e), true
	case 'b':
		return append(dst, '\b'), true
	case 'f':
		return append(dst, '\f'), true
	case 'n':
		return append(dst, '\n'), true
	case 'r':
		return append(dst, '\r'), true
	case 't':
		return append(dst, '\t'), true
	case 'u':
		hi, ok := s.hex4()
		if !ok {
			return dst, false
		}
		r := hi
		if utf16.IsSurrogate(hi) {
			// Like encoding/json: an unpaired surrogate becomes U+FFFD and
			// whatever follows it — even another escape — is reprocessed on
			// its own.
			save := s.i
			r = utf8.RuneError
			if s.lit(`\u`) {
				if lo, ok := s.hex4(); ok {
					if dec := utf16.DecodeRune(hi, lo); dec != utf8.RuneError {
						r = dec
						save = s.i
					}
				}
			}
			s.i = save
		}
		return utf8.AppendRune(dst, r), true
	}
	return dst, false
}

// hex4 consumes four hex digits.
func (s *rscan) hex4() (rune, bool) {
	if len(s.b)-s.i < 4 {
		return 0, false
	}
	var r rune
	for k := 0; k < 4; k++ {
		c := s.b[s.i+k]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, false
		}
	}
	s.i += 4
	return r, true
}

// reportsScratch is a frame decode's working memory: every report's decoded
// Detail bytes back to back, and where each one ends.
type reportsScratch struct {
	buf  []byte
	ends []int
}

var reportsScratchPool = sync.Pool{New: func() any { return new(reportsScratch) }}

// reportKey opens every report record. A JSON string cannot hold an
// unescaped quote, so in the fast shape its occurrences count the records.
var reportKey = []byte(`{"Ref":`)

// minReportJSON is the length of the shortest encoded report (all numbers
// 0, both strings empty). Capping the record count at len/minReportJSON
// keeps a forged frame of bare keys from sizing a slice larger than
// itself.
const minReportJSON = 124

// parseReportsFast parses the exact MarshalJSON shape. ok=false means
// "not that shape" (or malformed), never a partial result.
//
// A frame costs a fixed number of allocations whatever its length: the
// Reports slice, sized up front by counting records; one string holding
// every Detail, which each report slices; and one string per change of
// Code from the previous report — a firing lifeguard repeats one code.
func parseReportsFast(data []byte) (Reports, bool) {
	sc := reportsScratchPool.Get().(*reportsScratch)
	r, ok := sc.parse(data)
	sc.buf, sc.ends = sc.buf[:0], sc.ends[:0]
	reportsScratchPool.Put(sc)
	return r, ok
}

func (sc *reportsScratch) parse(data []byte) (Reports, bool) {
	s := rscan{b: data}
	var r Reports
	if !s.lit(`{"epoch":`) {
		return Reports{}, false
	}
	ep, ok := s.int64v()
	if !ok || int64(int(ep)) != ep {
		return Reports{}, false
	}
	r.Epoch = int(ep)
	if !s.lit(`,"reports":`) {
		return Reports{}, false
	}
	switch {
	case s.lit(`null}`):
	case s.lit(`[]}`):
		r.Reports = []core.Report{}
	default:
		if !s.lit(`[`) {
			return Reports{}, false
		}
		n := min(bytes.Count(data[s.i:], reportKey), len(data)/minReportJSON)
		r.Reports = make([]core.Report, 0, n)
		code := ""
		for {
			rep, ok := s.report(sc, &code)
			if !ok {
				return Reports{}, false
			}
			r.Reports = append(r.Reports, rep)
			if s.lit(`,`) {
				continue
			}
			if s.lit(`]}`) {
				break
			}
			return Reports{}, false
		}
	}
	if s.i != len(s.b) {
		return Reports{}, false
	}
	if len(sc.ends) > 0 {
		details, start := string(sc.buf), 0
		for i, end := range sc.ends {
			r.Reports[i].Detail = details[start:end]
			start = end
		}
	}
	return r, true
}

// report parses one core.Report in marshaled field order. Its Detail goes
// to the frame scratch (parse assigns it at the end); its Code reuses *code,
// the previous report's, when the bytes are equal.
func (s *rscan) report(sc *reportsScratch, code *string) (core.Report, bool) {
	var rep core.Report
	num := func(key string, dst *uint64) bool {
		if !s.lit(key) {
			return false
		}
		v, ok := s.uint64v()
		*dst = v
		return ok
	}
	inum := func(key string, dst *int) bool {
		if !s.lit(key) {
			return false
		}
		v, ok := s.int64v()
		if !ok || int64(int(v)) != v {
			return false
		}
		*dst = int(v)
		return true
	}
	var thread, kind int
	if !inum(`{"Ref":{"Epoch":`, &rep.Ref.Epoch) ||
		!inum(`,"Thread":`, &thread) ||
		!inum(`,"Index":`, &rep.Ref.Index) ||
		!inum(`},"Ev":{"Kind":`, &kind) ||
		!num(`,"Addr":`, &rep.Ev.Addr) ||
		!num(`,"Size":`, &rep.Ev.Size) ||
		!num(`,"Src1":`, &rep.Ev.Src1) ||
		!num(`,"Src2":`, &rep.Ev.Src2) ||
		!num(`,"Cycle":`, &rep.Ev.Cycle) {
		return core.Report{}, false
	}
	if kind < 0 || kind > 0xFF {
		return core.Report{}, false
	}
	rep.Ref.Thread = trace.ThreadID(thread)
	rep.Ev.Kind = trace.Kind(kind)
	if !s.lit(`},"Code":`) {
		return core.Report{}, false
	}
	// The code decodes past the details so far and is cut off again.
	mark := len(sc.buf)
	var ok bool
	if sc.buf, ok = s.appendStr(sc.buf); !ok {
		return core.Report{}, false
	}
	if raw := sc.buf[mark:]; string(raw) != *code {
		*code = string(raw)
	}
	rep.Code = *code
	sc.buf = sc.buf[:mark]
	if !s.lit(`,"Detail":`) {
		return core.Report{}, false
	}
	if sc.buf, ok = s.appendStr(sc.buf); !ok {
		return core.Report{}, false
	}
	sc.ends = append(sc.ends, len(sc.buf))
	if !s.lit(`}`) {
		return core.Report{}, false
	}
	return rep, true
}
