package main

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/proto"
)

// smallTraffics builds every generator at a size a unit test can afford.
func smallTraffics(seed int64) map[string]*traffic {
	return map[string]*traffic{
		"clean":   genAccess(newRNG(seed, "clean", 0), 32, 24, 0),
		"flood":   genAccess(newRNG(seed, "flood", 0), 32, 24, 0.5),
		"churn":   genChurn(newRNG(seed, "churn", 0), "addrcheck", 1024, 128, 24),
		"memory":  genChurn(newRNG(seed, "churn", 0), "memcheck", 1024, 128, 24),
		"taint":   genTaint(newRNG(seed, "taint", 0), 256, 16),
		"lockset": genLockset(newRNG(seed, "lockset", 0), 64, 16),
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	a, b, c := smallTraffics(7), smallTraffics(7), smallTraffics(8)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: two generations from one seed differ", name)
		}
		if reflect.DeepEqual(a[name].period, c[name].period) {
			t.Errorf("%s: seeds 7 and 8 give the same period", name)
		}
	}
	if reflect.DeepEqual(genAccess(newRNG(7, "clean", 0), 32, 24, 0).period, genAccess(newRNG(7, "clean", 1), 32, 24, 0).period) {
		t.Error("sessions 0 and 1 of one seed get the same period")
	}
}

func TestPeriodsKeepTheirBlockSize(t *testing.T) {
	for name, tr := range smallTraffics(3) {
		for l, r := range tr.period {
			for th, evs := range r {
				if h := len(tr.period[0][0]); len(evs) != h {
					t.Fatalf("%s: period epoch %d thread %d has %d events, want %d", name, l, th, len(evs), h)
				}
			}
		}
		if len(tr.period) < 16 {
			t.Errorf("%s: period of %d epochs", name, len(tr.period))
		}
	}
}

// A period must leave the lifeguard's state as it found it: replaying it
// yields the first replay's reports, one period later, and the same state
// size, and the stream is quiet where it ends.
func TestPeriodsAreStateNeutral(t *testing.T) {
	for name, tr := range smallTraffics(5) {
		d, err := defaultDriver(tr.lifeguard, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.Shards = 2
		inc, err := d.NewIncrementalTrimmed(nThreads)
		if err != nil {
			t.Fatal(err)
		}
		rb := epoch.NewRowBuilder(nThreads)
		feed := func(rows []row) []core.Report {
			var out []core.Report
			for _, r := range rows {
				blocks := r.blocks()
				rb.Stamp(blocks)
				reps, err := inc.FeedEpoch(blocks)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, reps...)
			}
			return out
		}
		feed(tr.prologue)
		first, size1 := feed(tr.period), inc.MemEstimate()
		second, size2 := feed(tr.period), inc.MemEstimate()
		if size1 != size2 {
			t.Errorf("%s: state estimate %d after one replay, %d after two", name, size1, size2)
		}
		if len(first) != len(second) {
			t.Errorf("%s: %d reports in the first replay, %d in the second", name, len(first), len(second))
		} else {
			for i := range first {
				want := first[i]
				want.Ref.Epoch += len(tr.period)
				if second[i] != want {
					t.Errorf("%s: report %d of the second replay is %v, want %v", name, i, second[i], want)
					break
				}
			}
		}
		res, err := inc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Reports) != 0 {
			t.Errorf("%s: trailing tick produced %d reports", name, len(res.Reports))
		}
		inc.Close()
		if name == "flood" && len(first) < rowEvents(tr.period)/3 {
			t.Errorf("flood: only %d reports for %d events", len(first), rowEvents(tr.period))
		}
		if (name == "clean" || name == "lockset") && len(first) != 0 {
			t.Errorf("%s: %d reports from clean traffic", name, len(first))
		}
	}
}

func TestReferenceMatchesReplaysOnly(t *testing.T) {
	tr := smallTraffics(2)["flood"]
	ref, err := reenact(tr, 0, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.per) == 0 {
		t.Fatal("flood reference has no reports")
	}
	traced, err := reenact(tr, 0, &tracer{clk: clock{t0: time.Now()}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if traced.digest() != ref.digest() {
		t.Error("traced and untraced passes disagree")
	}
	// What three replays must yield.
	res := &core.Result{Epochs: ref.proEpochs + 3*ref.perEpochs, Reports: append([]core.Report(nil), ref.pro...)}
	for k := 0; k < 3; k++ {
		for _, r := range ref.per {
			r.Ref.Epoch += k * ref.perEpochs
			res.Reports = append(res.Reports, r)
		}
	}
	if err := ref.matches(res, 3); err != nil {
		t.Errorf("three faithful replays rejected: %v", err)
	}
	res.Reports[len(res.Reports)-1].Ev.Addr++
	if ref.matches(res, 3) == nil {
		t.Error("a changed report went unnoticed")
	}
	if ref.matches(res, 2) == nil {
		t.Error("a wrong replay count went unnoticed")
	}
}

func TestReplaySourceEndsOnAPeriodBoundary(t *testing.T) {
	tr := smallTraffics(1)["clean"]
	stop := new(atomic.Bool)
	src := newReplaySource(clock{t0: time.Now()}, tr, stop)
	pro, per := len(tr.prologue), len(tr.period)
	events := 0
	for i := 0; i < pro+per+per/2; i++ {
		blocks, err := src.NextEpoch()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			events += len(b.Events)
		}
		if got := src.eventsAt(i + 1); got != events {
			t.Fatalf("eventsAt(%d) = %d, handed out %d", i+1, got, events)
		}
	}
	stop.Store(true) // mid-replay: the replay is finished first
	n := pro + per + per/2
	for ; ; n++ {
		if _, err := src.NextEpoch(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if n != pro+2*per {
		t.Errorf("source ended after %d epochs, want %d", n, pro+2*per)
	}

	bounded := newReplaySource(clock{t0: time.Now()}, tr, new(atomic.Bool))
	bounded.maxPeriods = 3
	for n = 0; ; n++ {
		if _, err := bounded.NextEpoch(); err == io.EOF {
			break
		}
	}
	if n != pro+3*per {
		t.Errorf("bounded source ended after %d epochs, want %d", n, pro+3*per)
	}
}

// serverBytes is what a server sends a client: a Welcome, then per epoch an
// optional Reports frame and an Ack.
func serverBytes(t *testing.T, acks int) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(proto.WriteJSON(bw, proto.FrameWelcome, proto.Welcome{Session: "feedfacefeedfacefeedfacefeedface", Shards: 2}))
	for l := 0; l < acks; l++ {
		if l%3 == 0 {
			must(proto.WriteJSON(bw, proto.FrameReports, proto.Reports{Epoch: l, Reports: []core.Report{{Code: "x", Detail: strings.Repeat("y", l)}}}))
		}
		must(proto.WriteFrame(bw, proto.FrameAck, proto.EncodeAck(l)))
	}
	must(bw.Flush())
	return buf.Bytes()
}

func TestAckObserverSurvivesSplitFrames(t *testing.T) {
	const acks = 300 // past 127, so Ack payloads of two bytes occur
	data := serverBytes(t, acks)
	rng := rand.New(rand.NewSource(1))
	for _, chunk := range []func() int{
		func() int { return 1 },
		func() int { return 1 + rng.Intn(7) },
		func() int { return len(data) },
	} {
		o := newAckObserver(clock{t0: time.Now()})
		now := int64(0)
		for p := data; len(p) > 0; {
			n := chunk()
			if n > len(p) {
				n = len(p)
			}
			now++
			o.observe(p[:n], now)
			p = p[n:]
		}
		if got := o.acked.Load(); got != acks {
			t.Fatalf("observer saw %d acks, want %d", got, acks)
		}
		for l := 0; l < acks; l++ {
			if o.ackAt[l] == 0 || (l > 0 && o.ackAt[l] < o.ackAt[l-1]) {
				t.Fatalf("ack %d stamped %d after %d", l, o.ackAt[l], o.ackAt[l-1])
			}
		}
		if o.session() != "feedfacefeedfacefeedfacefeedface" {
			t.Fatalf("session token %q", o.session())
		}
	}
}

func TestPercentiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(v, 0.5); got != 5.5 {
		t.Errorf("median of 1..10 = %v", got)
	}
	if got := percentile(v, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 of 1..10 = %v", got)
	}
	if percentile(nil, 0.5) != 0 || percentile(v[:1], 0.99) != 1 {
		t.Error("percentile of empty or single sample")
	}
}

func TestBoundArithmetic(t *testing.T) {
	for _, c := range []struct {
		base, cur float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.10},
		{100, 90, "lower", -0.10},
		{100, 92, "higher", 0.08},
		{100, 108, "higher", -0.08},
		{0, 0, "lower", 0},
	} {
		if got := worseBy(c.base, c.cur, c.better); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%v, %v, %s) = %v, want %v", c.base, c.cur, c.better, got, c.want)
		}
	}
	if !math.IsInf(worseBy(0, 1, "lower"), 1) {
		t.Error("a rise from zero is not unbounded")
	}
}

func TestCompareAppliesTheBounds(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.08},
		{Name: "ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	file := func(rate, p50 float64, failed int) string {
		f := resultFile{Workloads: map[string]workloadResult{"w": {Correct: failed == 0, Attempted: 100, Failed: failed,
			EndToEnd: map[string]value{"events_per_s": {rate, "1/s"}, "ack_p50_ms": {p50, "ms"}}}}}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file(1000, 2, 0)
	var out bytes.Buffer
	if err := compareFiles(spec, base, file(930, 2.19, 0), &out); err != nil {
		t.Errorf("values within their bounds failed: %v\n%s", err, out.String())
	}
	if err := compareFiles(spec, base, file(900, 2, 0), &out); err == nil {
		t.Error("a 10 % drop in events_per_s passed an 8 % bound")
	}
	if err := compareFiles(spec, base, file(1000, 2.3, 0), &out); err == nil {
		t.Error("a 15 % rise in ack_p50_ms passed a 10 % bound")
	}
	if err := compareFiles(spec, base, file(1100, 1, 1), &out); err == nil {
		t.Error("a rise in failed epochs passed")
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "PASS") {
		t.Errorf("verdicts missing from:\n%s", out.String())
	}
}

// BENCHMARK.json is read by the driver, the workload table by this program:
// they must name the same things.
func TestSpecNamesWhatTheProgramReports(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.Command) < 3 || spec.Command[2] != "./benchmark" || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	e2e := map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, name := range []string{"setup_s", "events_per_s", "ack_p50_ms", "ack_p90_ms", "server_cpu_s_per_mevent", "server_rss_mb"} {
		if !e2e[name] {
			t.Errorf("end-to-end metric %s is reported but not in BENCHMARK.json", name)
		}
		delete(e2e, name)
	}
	for name := range e2e {
		t.Errorf("end-to-end metric %s is in BENCHMARK.json but never reported", name)
	}

	seen := map[string]bool{}
	for _, m := range spec.PerLayer {
		if seen[m.Name] {
			t.Errorf("per-layer metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	// The accumulators name most per-layer metrics; run them dry. withUnits
	// checks the rest whenever a traced run reports them.
	L := newLayers()
	L.finish()
	for name := range L.m {
		if !seen[name] {
			t.Errorf("per-layer metric %s is reported but not in BENCHMARK.json", name)
		}
	}
}
