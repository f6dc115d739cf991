package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync/atomic"
	"time"

	"butterfly/internal/epoch"
	"butterfly/internal/proto"
)

// clock is the time base of one benchmark run: every stamp is nanoseconds
// since its start, so stamps taken on different goroutines compare.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// replaySource feeds one session: the prologue, then the period over and
// over until stop is set, ending on a period boundary. It implements
// core.BlockSource for client.Run and stamps when each epoch was due, which
// is what Ack latency is measured from.
type replaySource struct {
	clk      clock
	pro, per [][]*epoch.Block
	proCum   []int // proCum[i]: events in the first i prologue epochs
	perCum   []int

	n          int          // epochs handed out
	minPeriods int          // periods to replay even if stop is already set
	maxPeriods int          // > 0: the session ends after this many replays
	stop       *atomic.Bool // set when the measured window has closed

	// interval > 0 makes the source an open loop: epoch i is due at
	// start + i×interval whether or not the server keeps up.
	interval time.Duration
	start    int64

	due    []int64 // when each epoch was due (open loop) or handed over (closed)
	late   []int64 // open loop: how long after its due time an epoch was handed over
	handed atomic.Int64

	// gateAt ≥ 0 makes NextEpoch block before epoch gateAt until gate is
	// closed: the recovery phase holds its victim there across restarts.
	gateAt int
	gate   chan struct{}
}

func newReplaySource(clk clock, tr *traffic, stop *atomic.Bool) *replaySource {
	s := &replaySource{clk: clk, stop: stop, minPeriods: 1, gateAt: -1}
	cum := func(rows []row) ([][]*epoch.Block, []int) {
		blocks := make([][]*epoch.Block, len(rows))
		c := make([]int, len(rows)+1)
		for i, r := range rows {
			blocks[i] = r.blocks()
			c[i+1] = c[i] + r.events()
		}
		return blocks, c
	}
	s.pro, s.proCum = cum(tr.prologue)
	s.per, s.perCum = cum(tr.period)
	return s
}

func (s *replaySource) NumThreads() int { return nThreads }

// warm is the number of epochs that precede the measured part of a session:
// the prologue and the first replay of the period.
func (s *replaySource) warm() int { return len(s.pro) + len(s.per) }

// eventsAt returns the events in the first n epochs of the stream.
func (s *replaySource) eventsAt(n int) int {
	if n <= len(s.pro) {
		return s.proCum[n]
	}
	k, r := (n-len(s.pro))/len(s.per), (n-len(s.pro))%len(s.per)
	return s.proCum[len(s.pro)] + k*s.perCum[len(s.per)] + s.perCum[r]
}

func (s *replaySource) NextEpoch() ([]*epoch.Block, error) {
	n := s.n
	var blocks []*epoch.Block
	if n < len(s.pro) {
		blocks = s.pro[n]
	} else {
		k, r := (n-len(s.pro))/len(s.per), (n-len(s.pro))%len(s.per)
		if r == 0 && (k >= s.minPeriods && s.stop.Load() || k == s.maxPeriods && k > 0) {
			return nil, io.EOF
		}
		blocks = s.per[r]
	}
	if n == s.gateAt {
		<-s.gate
	}
	now := s.clk.now()
	if s.interval > 0 {
		if n == 0 {
			s.start = now
		}
		due := s.start + int64(n)*int64(s.interval)
		if wait := due - now; wait > 0 {
			time.Sleep(time.Duration(wait))
			now = s.clk.now()
		}
		s.late = append(s.late, now-due)
		now = due
	}
	s.due = append(s.due, now)
	s.n++
	s.handed.Store(int64(s.n))
	return blocks, nil
}

// ackObserver watches the server-to-client byte stream of a session's
// connections: it stamps the arrival of every Ack frame and keeps the
// session token of the Welcome. It sees raw reads, so a frame header or an
// Ack's varint may arrive split across two of them; the parser carries its
// state from read to read.
type ackObserver struct {
	clk clock

	hdr    [5]byte
	nhdr   int
	typ    proto.FrameType
	remain int // payload bytes of the current frame not yet seen
	ack    [binary.MaxVarintLen64]byte
	nack   int

	ackAt   []int64      // arrival of Ack(l), indexed by l
	acked   atomic.Int64 // epochs acknowledged so far
	welcome []byte       // payload of the Welcome being read
	token   atomic.Value // session token of the last Welcome, a string
}

func newAckObserver(clk clock) *ackObserver { return &ackObserver{clk: clk} }

// session returns the resume token the server handed this session.
func (o *ackObserver) session() string {
	tok, _ := o.token.Load().(string)
	return tok
}

// reset forgets a half-parsed frame: a new connection starts at a boundary.
func (o *ackObserver) reset() { o.nhdr, o.remain, o.nack = 0, 0, 0 }

func (o *ackObserver) observe(p []byte, now int64) {
	for len(p) > 0 {
		if o.remain == 0 {
			n := copy(o.hdr[o.nhdr:], p)
			o.nhdr += n
			p = p[n:]
			if o.nhdr < len(o.hdr) {
				return
			}
			o.nhdr = 0
			o.typ = proto.FrameType(o.hdr[4])
			o.remain = int(binary.BigEndian.Uint32(o.hdr[:4])) - 1
			o.nack = 0
			o.welcome = o.welcome[:0]
			continue
		}
		n := len(p)
		if n > o.remain {
			n = o.remain
		}
		switch o.typ {
		case proto.FrameAck:
			o.nack += copy(o.ack[o.nack:], p[:n])
		case proto.FrameWelcome:
			o.welcome = append(o.welcome, p[:n]...)
		}
		o.remain -= n
		p = p[n:]
		if o.remain > 0 {
			return
		}
		switch o.typ {
		case proto.FrameAck:
			if num, err := proto.DecodeAck(o.ack[:o.nack]); err == nil {
				for len(o.ackAt) <= num {
					o.ackAt = append(o.ackAt, 0)
				}
				o.ackAt[num] = now
				o.acked.Store(int64(num) + 1)
			}
		case proto.FrameWelcome:
			var w proto.Welcome
			if json.Unmarshal(o.welcome, &w) == nil {
				o.token.Store(w.Session)
			}
		}
	}
}

// dial is a client.Options.Dial that routes the connection through o.
func (o *ackObserver) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	o.reset()
	return &observedConn{Conn: c, o: o}, nil
}

type observedConn struct {
	net.Conn
	o *ackObserver
}

func (c *observedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.o.observe(p[:n], c.o.clk.now())
	}
	return n, err
}
