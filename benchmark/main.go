// Command benchmark is the repository's benchmark: seven named workloads —
// five that drive the real butterflyd binary as a subprocess and two that
// run the in-process streaming path — measured end to end and, in a traced
// run, layer by layer. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
// The contract the pipeline's driver uses, one workload and one JSON line:
//
//	go run ./benchmark --workload small-epochs --seed 1 --seconds 8 --trace 0
//
// Without -workload every workload runs in turn and every metric is printed
// by name with its unit:
//
//	go run ./benchmark -seed 1 -traced -out result.json -trace-out spans.json
//	go run ./benchmark -compare a.json b.json
//
// It must be started from the repository root: it builds ./cmd/butterflyd
// and reads BENCHMARK.json from the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output in contract mode.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	WallS     float64          `json:"wall_s"`       // the whole run of the workload
	TimedS    float64          `json:"timed_wall_s"` // its measured part
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Sessions  []sessionSummary `json:"sessions"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostInfo                  `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// hostInfo says where and on what a result was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GoMod      string `json:"go_mod_directive"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GoMod: "unknown", Kernel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("go.mod"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go "); ok {
				h.GoMod = v
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// defaultSeed is the seed golden.json was recorded with.
const defaultSeed = 1

// options are the command line.
type options struct {
	workload    string
	seed        int64
	seconds     float64
	traced      bool
	outPath     string
	spanPath    string
	compare     bool
	writeGolden bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this workload only and end with the contract's JSON line (default: all)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of a workload's measured window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports the per-layer metrics")
	flag.BoolVar(&o.traced, "traced", false, "same as -trace 1")
	flag.StringVar(&o.outPath, "out", "", "write the results to this file")
	flag.StringVar(&o.spanPath, "trace-out", "", "write the traced run's spans to this file as JSON")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "record this run's reference digests in benchmark/golden.json")
	flag.Parse()
	o.traced = o.traced || trace == 1
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(spec, args[0], args[1], os.Stdout)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	todo := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []workload{w}
	}

	tmp, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	x := &runCtx{seed: o.seed, seconds: o.seconds, traced: o.traced, clk: clock{t0: time.Now()}, tmp: tmp}
	if o.traced {
		x.tracer = &tracer{clk: x.clk}
	}
	want, err := loadGolden()
	if err != nil {
		return err
	}

	file := resultFile{Host: host(), Seed: o.seed, Seconds: o.seconds, Workloads: map[string]workloadResult{}}
	var last contractLine
	for _, w := range todo {
		if x.bin == "" && w.serve {
			if x.bin, err = buildDaemon(); err != nil {
				return err
			}
		}
		start := time.Now()
		out, err := runWorkload(w, x)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res := workloadResult{Correct: out.failed == 0 && !out.broken, Attempted: out.attempted, Failed: out.failed,
			WallS: time.Since(start).Seconds(), TimedS: out.timedWall, Sessions: out.sessions}
		if res.EndToEnd, err = withUnits(spec.EndToEnd, out.e2e); err != nil {
			return err
		}
		if o.traced {
			if res.PerLayer, err = withUnits(spec.PerLayer, out.layers); err != nil {
				return err
			}
		}
		if o.seed == defaultSeed && !o.writeGolden {
			if err := want.check(w.name, out.sessions); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				res.Correct = false
			}
		}
		want[w.name] = out.sessions
		file.Workloads[w.name] = res
		printResult(w.name, res, spec)
		last = contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.EndToEnd}
		if o.traced {
			last.Metrics = res.PerLayer
		}
	}

	if o.writeGolden {
		if o.seed != defaultSeed || o.workload != "" {
			return fmt.Errorf("-write-golden records all workloads at the default seed")
		}
		if err := want.write(); err != nil {
			return err
		}
	}
	if o.outPath != "" {
		if err := writeJSON(o.outPath, file); err != nil {
			return err
		}
	}
	if o.spanPath != "" && x.tracer != nil {
		if err := writeJSON(o.spanPath, x.tracer.spans); err != nil {
			return err
		}
	}
	if o.workload != "" {
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// withUnits pairs the measured values with the units BENCHMARK.json states.
// A metric the workload does not exercise reads 0; a value BENCHMARK.json
// does not name is an error.
func withUnits(specs []metricSpec, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(specs))
	for _, m := range specs {
		out[m.Name] = value{Value: got[m.Name], Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but BENCHMARK.json does not name it", name)
		}
	}
	return out, nil
}

func printResult(name string, res workloadResult, spec *benchSpec) {
	fmt.Printf("== %s: %d epochs attempted, %d failed, timed %.2fs, whole run %.2fs\n",
		name, res.Attempted, res.Failed, res.TimedS, res.WallS)
	for _, m := range spec.EndToEnd {
		fmt.Printf("%-40s %16.6g %s\n", m.Name, res.EndToEnd[m.Name].Value, m.Unit)
	}
	for _, m := range spec.PerLayer {
		if v, ok := res.PerLayer[m.Name]; ok {
			fmt.Printf("%-40s %16.6g %s\n", m.Name, v.Value, m.Unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// goldenFile maps a workload to its sessions' reference results at the
// default seed.
type goldenFile map[string][]sessionSummary

const goldenPath = "benchmark/golden.json"

func loadGolden() (goldenFile, error) {
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if os.IsNotExist(err) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func (g goldenFile) check(workload string, got []sessionSummary) error {
	want, ok := g[workload]
	if !ok {
		return fmt.Errorf("%s has no entry in %s", workload, goldenPath)
	}
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d sessions, %s has %d", workload, len(got), goldenPath, len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s: session %+v differs from %s's %+v", workload, got[i], goldenPath, want[i])
		}
	}
	return nil
}

func (g goldenFile) write() error { return writeJSON(filepath.FromSlash(goldenPath), g) }
