package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/proto"
)

// clientWindow is the closed loop's depth: epochs a session may have sent
// and not yet seen acknowledged. It is client.Options' own default, stated
// because the Ack latency of a closed loop is mostly this queue.
const clientWindow = 256

// sliceLen is how far apart a phase's samples are taken.
const sliceLen = 500 * time.Millisecond

// tick is one sample of a phase's progress.
type tick struct {
	at             int64 // clock
	events, epochs int   // acknowledged so far, all sessions
	server, self   float64
	rssMB          float64
}

// phase is what one measured window over a set of concurrent sessions
// yielded: samples sliceLen apart, taken once every session has replayed its
// period once, and the sessions' latencies and epoch counts.
type phase struct {
	ticks     []tick
	sessions  int
	lat       []float64 // ms per measured epoch, in arrival order per session
	latAt     []int64   // when each arrived
	late      []float64 // open loop: ms each epoch was handed over after it was due
	attempted int       // epochs handed to a client
	failed    int
}

func (p *phase) first() tick { return p.ticks[0] }
func (p *phase) last() tick  { return p.ticks[len(p.ticks)-1] }

// slices cuts the phase at its ticks.
func (p *phase) slices() []slice {
	out := make([]slice, len(p.ticks)-1)
	for i := range out {
		a, b := p.ticks[i], p.ticks[i+1]
		out[i] = slice{wall: float64(b.at-a.at) / 1e9, events: b.events - a.events, epochs: b.epochs - a.epochs,
			cpu: b.server - a.server, rssMB: b.rssMB}
	}
	for j, at := range p.latAt {
		i := sort.Search(len(p.ticks), func(i int) bool { return p.ticks[i].at > at }) - 1
		if i >= 0 && i < len(out) {
			out[i].lat = append(out[i].lat, p.lat[j])
		}
	}
	return out
}

// selfCPU returns the user+system CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// liveSession is one client.Run in flight.
type liveSession struct {
	src  *replaySource
	obs  *ackObserver
	ref  *reference
	res  *core.Result
	err  error
	done chan struct{}
}

func startSession(addr string, clk clock, tr *traffic, ref *reference, stop *atomic.Bool, opts client.Options, prepare func(*replaySource)) *liveSession {
	s := &liveSession{src: newReplaySource(clk, tr, stop), obs: newAckObserver(clk), ref: ref, done: make(chan struct{})}
	if prepare != nil {
		prepare(s.src)
	}
	opts.Lifeguard = tr.lifeguard
	opts.MaxInflight = clientWindow
	opts.Dial = s.obs.dial
	go func() {
		defer close(s.done)
		s.res, s.err = client.Run(addr, opts, s.src)
	}()
	return s
}

// verdict checks a finished session's result against its reference.
func (s *liveSession) verdict() error {
	if s.err != nil {
		return fmt.Errorf("session: %w", s.err)
	}
	periods := (s.res.Epochs - s.ref.proEpochs) / s.ref.perEpochs
	if err := s.ref.matches(s.res, periods); err != nil {
		return fmt.Errorf("session result differs from the reference: %w", err)
	}
	if want := s.src.eventsAt(s.src.n); s.res.Events != want {
		return fmt.Errorf("server counted %d events, client sent %d", s.res.Events, want)
	}
	return nil
}

// ackedEvents is the number of events the server has acknowledged so far.
func (s *liveSession) ackedEvents() (events, epochs int) {
	n := int(s.obs.acked.Load())
	return s.src.eventsAt(n), n
}

// settle checks a finished session against its reference and counts its
// epochs: all of them fail if the session failed or its result is wrong,
// otherwise those that were never acknowledged. warmed says the session
// began with a warm-up replay, whose latencies are left out.
func (s *liveSession) settle(p *phase, warmed bool) error {
	p.attempted += s.src.n
	if err := s.verdict(); err != nil {
		p.failed += s.src.n
		return err
	}
	for e := 0; e < s.src.n; e++ {
		if e >= len(s.obs.ackAt) || s.obs.ackAt[e] == 0 {
			p.failed++
		}
	}
	// Latency samples leave out the warm-up replay of a phase's first session.
	from := 0
	if warmed {
		from = s.src.warm()
	}
	for e := from; e < s.src.n && e < len(s.obs.ackAt); e++ {
		if s.obs.ackAt[e] != 0 {
			p.lat = append(p.lat, float64(s.obs.ackAt[e]-s.src.due[e])/1e6)
			p.latAt = append(p.latAt, s.obs.ackAt[e])
		}
	}
	if s.src.interval > 0 {
		for _, l := range s.src.late[from:] {
			p.late = append(p.late, float64(l)/1e6)
		}
	}
	return nil
}

// slot is one of a phase's concurrent streams: sessions over one traffic,
// run back to back. With maxPeriods 0 a slot is a single session that lasts
// the whole phase; otherwise each session ends after that many replays of
// the period and the next one starts, which bounds what server and client
// hold for a session — both keep every report of a session until it ends.
type slot struct {
	mu      sync.Mutex
	cur     *liveSession // the session in flight
	events  int          // events and epochs acknowledged to finished sessions
	epochs  int
	settled phase
	errs    []error
	done    chan struct{}
}

// acked is the number of events and epochs the server has acknowledged to
// the slot's sessions so far.
func (sl *slot) acked() (events, epochs int) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	events, epochs = sl.events, sl.epochs
	if sl.cur != nil {
		ev, ep := sl.cur.ackedEvents()
		events, epochs = events+ev, epochs+ep
	}
	return events, epochs
}

// run streams sessions until stop is set and the session in flight has
// ended. warm is closed once the first session has replayed its period once.
func (sl *slot) run(addr string, clk clock, tr *traffic, ref *reference, stop *atomic.Bool, interval time.Duration, maxPeriods int, warm chan<- struct{}) {
	defer close(sl.done)
	for first := true; first || !stop.Load(); first = false {
		s := startSession(addr, clk, tr, ref, stop, client.Options{}, func(src *replaySource) {
			src.interval, src.maxPeriods = interval, maxPeriods
		})
		sl.mu.Lock()
		sl.cur = s
		sl.mu.Unlock()
		if first {
			for s.src.handed.Load() < int64(s.src.warm()) {
				select {
				case <-s.done:
					sl.errs = append(sl.errs, fmt.Errorf("session ended during warm-up: %v", s.err))
					close(warm)
					return
				case <-time.After(time.Millisecond):
				}
			}
			close(warm)
		}
		<-s.done
		sl.mu.Lock()
		sl.cur = nil
		ev, ep := s.ackedEvents()
		sl.events, sl.epochs = sl.events+ev, sl.epochs+ep
		sl.mu.Unlock()
		if err := s.settle(&sl.settled, first); err != nil {
			sl.errs = append(sl.errs, err)
			return
		}
	}
}

// runSessions streams trs concurrently to the daemon, one slot each,
// measures for window once each has finished its warm-up replay, then lets
// every session run to the end of its current replay and checks the
// results. interval > 0 makes the sessions open loops with one epoch due per
// interval.
func runSessions(d *daemon, clk clock, trs []*traffic, refs []*reference, window, interval time.Duration, maxPeriods int) (*phase, error) {
	stop := new(atomic.Bool)
	slots := make([]*slot, len(trs))
	warm := make([]chan struct{}, len(trs))
	for i, tr := range trs {
		slots[i] = &slot{done: make(chan struct{})}
		warm[i] = make(chan struct{})
		go slots[i].run(d.addr, clk, tr, refs[i], stop, interval, maxPeriods, warm[i])
	}
	for _, w := range warm {
		<-w
	}
	pid := d.cmd.Process.Pid
	sample := func() (tick, error) {
		tk := tick{at: clk.now(), self: selfCPU()}
		for _, sl := range slots {
			ev, ep := sl.acked()
			tk.events += ev
			tk.epochs += ep
		}
		var err error
		if tk.server, err = d.cpuSeconds(); err != nil {
			return tk, err
		}
		tk.rssMB, err = procStatusMB(pid, "VmRSS")
		return tk, err
	}
	p := &phase{sessions: len(trs)}
	var sampleErr error
	for end := clk.now() + int64(window); ; time.Sleep(sliceLen) {
		tk, err := sample()
		if err != nil {
			sampleErr = err
			break
		}
		p.ticks = append(p.ticks, tk)
		if tk.at >= end {
			break
		}
	}
	stop.Store(true)
	errs := []error{sampleErr}
	for _, sl := range slots {
		<-sl.done
		p.merge(&sl.settled)
		errs = append(errs, sl.errs...)
	}
	if sampleErr != nil || len(p.ticks) < 2 {
		return nil, errors.Join(errs...)
	}
	return p, errors.Join(errs...)
}

// merge takes in the latencies and epoch counts of one slot's sessions.
func (p *phase) merge(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.latAt = append(p.latAt, q.latAt...)
	p.late = append(p.late, q.late...)
	p.attempted += q.attempted
	p.failed += q.failed
}

// recoveryCycles is how often the recovery phase kills and restarts the
// daemon under its victim; recovery_s is the median of the cycles.
const recoveryCycles = 3

// runVictim is the recovery phase of durable-recover. A third session
// streams its prologue and one period and then holds; with everything
// acknowledged the daemon is SIGKILLed and restarted recoveryCycles times,
// and each time a probe resumes the session with the client's own backoff
// and times exec → Welcome. The Welcome only comes once boot recovery has
// replayed the victim's log: server.Listen binds the port before it
// replays, so a bare connect succeeds long before. Then the hold is
// released and the real client resumes and streams a second period to Done.
func runVictim(d *daemon, clk clock, tr *traffic, ref *reference) (samples []float64, p *phase, err error) {
	stop := new(atomic.Bool)
	stop.Store(true) // the victim only ever runs its minimum
	gate := make(chan struct{})
	release := func() {
		if gate != nil {
			close(gate)
			gate = nil
		}
	}
	s := startSession(d.addr, clk, tr, ref, stop,
		client.Options{MaxRetries: 1 << 20, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
			ReconnectMax: 30 * time.Second},
		func(src *replaySource) {
			src.minPeriods = 2
			src.gateAt = src.warm()
			src.gate = gate
		})
	defer func() {
		release()
		<-s.done
	}()
	held := s.src.warm()
	deadline := time.Now().Add(60 * time.Second)
	for s.obs.acked.Load() < int64(held) {
		select {
		case <-s.done:
			return nil, nil, fmt.Errorf("victim ended before it was held: %v", s.err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, nil, errors.New("victim's first period was not acknowledged within 60s")
		}
	}
	token := s.obs.session()
	if token == "" {
		return nil, nil, errors.New("victim's Welcome was not observed")
	}
	for i := 0; i < recoveryCycles; i++ {
		d.kill()
		at, err := d.start()
		if err != nil {
			return nil, nil, err
		}
		welcome, err := probeResume(d.addr, proto.Hello{Proto: proto.Version, Lifeguard: tr.lifeguard,
			NumThreads: nThreads, Resume: token, AckedEpoch: held - 1})
		if err != nil {
			return nil, nil, fmt.Errorf("recovery cycle %d: %w\n%s", i, err, d.log.Bytes())
		}
		samples = append(samples, welcome.Sub(at).Seconds())
	}
	release()
	<-s.done
	p = &phase{}
	return samples, p, s.settle(p, true)
}

// probeResume dials addr until it connects, retrying every millisecond,
// resumes the session and returns the arrival of the Welcome. It then drops
// the connection, which detaches the session again. Only transport errors
// are retried: whatever the server answers is final.
func probeResume(addr string, hello proto.Hello) (time.Time, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		at, retry, err := tryResume(addr, hello, deadline)
		if err == nil {
			return at, nil
		}
		if !retry || time.Now().After(deadline) {
			return time.Time{}, err
		}
		time.Sleep(time.Millisecond)
	}
}

func tryResume(addr string, hello proto.Hello, deadline time.Time) (at time.Time, retry bool, err error) {
	conn, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
	if err != nil {
		return at, true, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	bw := bufio.NewWriter(conn)
	if err := proto.WriteJSON(bw, proto.FrameHello, hello); err != nil {
		return at, true, err
	}
	if err := bw.Flush(); err != nil {
		return at, true, err
	}
	ft, payload, err := proto.ReadFrame(bufio.NewReader(conn))
	at = time.Now()
	if err != nil {
		return at, true, err
	}
	if ft != proto.FrameWelcome {
		return at, false, fmt.Errorf("resume answered with %v: %s", ft, payload)
	}
	var w proto.Welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		return at, false, err
	}
	if !w.Recovered || w.NextEpoch != hello.AckedEpoch+1 {
		return at, false, fmt.Errorf("resumed at epoch %d (recovered=%v), want %d from a recovered session",
			w.NextEpoch, w.Recovered, hello.AckedEpoch+1)
	}
	return at, false, nil
}
