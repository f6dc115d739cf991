// Command butterfly-bench regenerates the paper's evaluation artifacts:
// Table 1 and Figures 11–13 of "Butterfly Analysis: Adapting Dataflow
// Analysis to Dynamic Parallel Monitoring" (ASPLOS 2010), plus ablations.
//
// Usage:
//
//	butterfly-bench [-exp all|table1|fig11|fig12|fig13|ablate] [flags]
//
// Experiments run at a configurable scale (-scale); epoch sizes and total
// work shrink together, preserving the churn-per-epoch ratios that drive
// the results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"butterfly/internal/bench"
	"butterfly/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: all, table1, fig11, fig12, fig13, ablate")
		scale   = flag.Float64("scale", 0, "scale factor for work and epoch sizes (0 = default 1/32)")
		threads = flag.String("threads", "2,4,8", "comma-separated application thread counts")
		apps    = flag.String("apps", "", "comma-separated benchmark subset (default: all six)")
		seed    = flag.Int64("seed", 42, "simulation seed")
		seq     = flag.Bool("seq", false, "run the butterfly driver sequentially (deterministic report order)")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof while the sweeps run")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text, json")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatalf("%v", err)
	}
	if *debugAddr != "" {
		ds, err := obs.StartDebugServer(*debugAddr, obs.New())
		if err != nil {
			fatalf("%v", err)
		}
		defer ds.Close()
		log.Info("debug server listening", "addr", ds.Addr(),
			"profile_hint", fmt.Sprintf("go tool pprof http://%s/debug/pprof/profile?seconds=10", ds.Addr()))
	}

	o := bench.DefaultOptions()
	if *scale > 0 {
		o.Scale = *scale
	}
	o.Seed = *seed
	o.Parallel = !*seq
	o.Threads = o.Threads[:0]
	for _, s := range strings.Split(*threads, ",") {
		var t int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &t); err != nil || t < 1 {
			fatalf("bad -threads value %q", s)
		}
		o.Threads = append(o.Threads, t)
	}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}

	switch *exp {
	case "table1":
		fmt.Print(bench.Table1(o))
	case "fig11", "fig12", "fig13", "all":
		fmt.Print(bench.Table1(o))
		fmt.Println()
		start := time.Now()
		e, err := bench.Run(o)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("(sweeps completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
		if *exp == "all" || *exp == "fig11" {
			fmt.Println(bench.RenderFig11(e.Fig11()))
		}
		if *exp == "all" || *exp == "fig12" {
			fmt.Println(bench.RenderFig12(e.Fig12()))
		}
		if *exp == "all" || *exp == "fig13" {
			fmt.Println(bench.RenderFig13(e.Fig13()))
		}
		if *exp == "all" {
			fmt.Println(bench.RenderFilterAblation(bench.FilterAblation(e.Large)))
		}
	case "ablate":
		rows, err := bench.TaintPhaseAblation(5, 4, 24, 4, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(bench.RenderTaintAblation(rows))
	default:
		fatalf("unknown experiment %q", *exp)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "butterfly-bench: "+format+"\n", args...)
	os.Exit(1)
}
