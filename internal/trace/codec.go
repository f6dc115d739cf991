package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Binary trace format:
//
//	magic "BFLY1" | uvarint nthreads
//	per thread:   uvarint nevents | events
//	event:        kind byte | uvarint addr | uvarint size | uvarint src1 |
//	              uvarint src2 | uvarint cycle
//	ground truth: uvarint n (0 = none) | n × (uvarint thread, uvarint index)
//
// The format is self-contained and stream-decodable; cmd/tracegen writes it
// and cmd/butterfly-run reads it.

const binaryMagic = "BFLY1"

// spillLen is how much encoded output the file writers gather before one
// Write.
const spillLen = 64 << 10

// spill writes buf to w once it holds spillLen bytes, and returns the
// slice to append to next.
func spill(w io.Writer, buf []byte) ([]byte, error) {
	if len(buf) < spillLen {
		return buf, nil
	}
	_, err := w.Write(buf)
	return buf[:0], err
}

// WriteBinary encodes tr to w in the binary trace format. It appends into
// one scratch slice and writes it out every spillLen bytes.
func WriteBinary(w io.Writer, tr *Trace) error {
	buf := binary.AppendUvarint([]byte(binaryMagic), uint64(len(tr.Threads)))
	for _, th := range tr.Threads {
		buf = binary.AppendUvarint(buf, uint64(len(th)))
		for i := range th {
			var err error
			if buf, err = spill(w, appendEvent(buf, &th[i])); err != nil {
				return err
			}
		}
	}
	_, err := w.Write(appendGlobal(buf, tr.Global))
	return err
}

// ReadBinary decodes a trace written by WriteBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	in := input{br: br}
	nthreads, err := in.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: reading thread count: %w", err)
	}
	if nthreads > 1<<16 {
		return nil, fmt.Errorf("trace: unreasonable thread count %d", nthreads)
	}
	tr := &Trace{Threads: make([][]Event, nthreads)}
	for t := range tr.Threads {
		nev, err := in.uvarint()
		if err != nil {
			return nil, fmt.Errorf("trace: thread %d event count: %w", t, err)
		}
		evs, i, err := in.events(nil, nev, allKinds)
		if err != nil {
			return nil, fmt.Errorf("trace: thread %d event %d: %w", t, i, err)
		}
		tr.Threads[t] = evs
	}
	global, err := in.global()
	if err != nil {
		return nil, err
	}
	tr.Global = global
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// WriteText encodes tr in a line-oriented human-readable format:
//
//	thread <t>
//	<kind> <addr> <size> [<src1> [<src2>]]
//	...
//	global
//	<thread> <index>
//
// Numbers are hexadecimal with 0x prefix for addresses, decimal otherwise.
func WriteText(w io.Writer, tr *Trace) error {
	var buf []byte
	for t, th := range tr.Threads {
		buf = fmt.Appendf(buf, "thread %d\n", t)
		for _, e := range th {
			switch e.Kind {
			case AssignUn:
				buf = fmt.Appendf(buf, "%s %#x %#x\n", e.Kind, e.Addr, e.Src1)
			case AssignBin:
				buf = fmt.Appendf(buf, "%s %#x %#x %#x\n", e.Kind, e.Addr, e.Src1, e.Src2)
			case Nop, Heartbeat, BarrierEv:
				buf = fmt.Appendf(buf, "%s\n", e.Kind)
			default:
				buf = fmt.Appendf(buf, "%s %#x %d\n", e.Kind, e.Addr, e.Size)
			}
			var err error
			if buf, err = spill(w, buf); err != nil {
				return err
			}
		}
	}
	if tr.Global != nil {
		buf = append(buf, "global\n"...)
		for _, g := range tr.Global {
			buf = fmt.Appendf(buf, "%d %d\n", g.Thread, g.Index)
		}
	}
	_, err := w.Write(buf)
	return err
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		m[k.String()] = k
	}
	return m
}()

// ReadText parses the format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var cur *[]Event
	inGlobal := false
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "thread":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: bad thread header", lineno)
			}
			tr.Threads = append(tr.Threads, nil)
			cur = &tr.Threads[len(tr.Threads)-1]
			inGlobal = false
		case fields[0] == "global":
			inGlobal = true
		case inGlobal:
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: bad global ref", lineno)
			}
			t, err1 := strconv.Atoi(fields[0])
			i, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("trace: line %d: bad global ref %q", lineno, line)
			}
			tr.Global = append(tr.Global, GlobalRef{ThreadID(t), i})
		default:
			if cur == nil {
				return nil, fmt.Errorf("trace: line %d: event before thread header", lineno)
			}
			k, ok := kindByName[fields[0]]
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown event kind %q", lineno, fields[0])
			}
			e := Event{Kind: k}
			parse := func(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }
			var err error
			switch k {
			case AssignUn:
				if len(fields) != 3 {
					return nil, fmt.Errorf("trace: line %d: unop wants 2 args", lineno)
				}
				if e.Addr, err = parse(fields[1]); err == nil {
					e.Src1, err = parse(fields[2])
				}
			case AssignBin:
				if len(fields) != 4 {
					return nil, fmt.Errorf("trace: line %d: binop wants 3 args", lineno)
				}
				if e.Addr, err = parse(fields[1]); err == nil {
					if e.Src1, err = parse(fields[2]); err == nil {
						e.Src2, err = parse(fields[3])
					}
				}
			case Nop, Heartbeat, BarrierEv:
				if len(fields) != 1 {
					return nil, fmt.Errorf("trace: line %d: %s wants no args", lineno, k)
				}
			default:
				if len(fields) != 3 {
					return nil, fmt.Errorf("trace: line %d: %s wants addr and size", lineno, k)
				}
				if e.Addr, err = parse(fields[1]); err == nil {
					e.Size, err = parse(fields[2])
				}
			}
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %v", lineno, err)
			}
			*cur = append(*cur, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
