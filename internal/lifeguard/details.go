package lifeguard

import (
	"strconv"

	"butterfly/internal/core"
)

// Details builds one pass's reports and their Detail strings. A lifeguard
// firing on a large share of accesses would otherwise pay a fmt.Sprintf — a
// format parse, boxed arguments and a string — per report, plus the
// doublings of its report slice. Here each report appends its text to one
// buffer and Report closes it; Finish converts the whole buffer to a string
// once, hands every report a substring of it, and copies the reports into
// one exactly sized slice: two allocations per reporting block. The
// appenders produce exactly the text fmt does for the verbs they replace
// (Hex is %#x, Ints is %v of an []int; a trace.Kind's %v is its String),
// which FuzzReportDetail checks.
//
// A builder is scratch of one block's summary, used by that block's passes
// in turn and emptied by Finish, so parallel passes share nothing and a
// reused summary's builder keeps the buffers it grew. The zero value is
// ready to use.
type Details struct {
	buf     []byte
	reports []core.Report
	ends    []int // ends[i] is the buffer offset where reports[i]'s detail stops
}

// Str appends s.
func (d *Details) Str(s string) *Details {
	d.buf = append(d.buf, s...)
	return d
}

// Hex appends x as fmt's %#x does.
func (d *Details) Hex(x uint64) *Details {
	d.buf = AppendHex(d.buf, x)
	return d
}

// Range appends the half-open byte range [lo,hi) in hex.
func (d *Details) Range(lo, hi uint64) *Details {
	d.buf = append(d.buf, '[')
	d.buf = AppendHex(d.buf, lo)
	d.buf = append(d.buf, ',')
	d.buf = AppendHex(d.buf, hi)
	d.buf = append(d.buf, ')')
	return d
}

// Ints appends xs as fmt's %v of an []int does: "[1 2 3]".
func (d *Details) Ints(xs []int) *Details {
	d.buf = append(d.buf, '[')
	for i, x := range xs {
		if i > 0 {
			d.buf = append(d.buf, ' ')
		}
		d.buf = strconv.AppendInt(d.buf, int64(x), 10)
	}
	d.buf = append(d.buf, ']')
	return d
}

// Report adds r, whose Detail is the text appended since the previous
// Report.
func (d *Details) Report(r core.Report) {
	d.reports = append(d.reports, r)
	d.ends = append(d.ends, len(d.buf))
}

// Finish returns the pass's reports, nil when there were none, and empties
// the builder for the next pass.
func (d *Details) Finish() []core.Report {
	var out []core.Report
	if len(d.reports) > 0 {
		out = make([]core.Report, len(d.reports))
		copy(out, d.reports)
		s, start := string(d.buf), 0
		for i, end := range d.ends {
			out[i].Detail = s[start:end]
			start = end
		}
	}
	clear(d.reports) // drop the references the scratch holds
	d.buf, d.reports, d.ends = d.buf[:0], d.reports[:0], d.ends[:0]
	return out
}

// AppendHex appends x as fmt's %#x does: "0x" and lower-case hex digits,
// so 0 is "0x0".
func AppendHex(b []byte, x uint64) []byte {
	return strconv.AppendUint(append(b, "0x"...), x, 16)
}
