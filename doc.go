// Package butterfly is a Go implementation of butterfly analysis, the
// dynamic parallel monitoring framework of
//
//	Goodstein, Vlachos, Chen, Gibbons, Kozuch, Mowry.
//	"Butterfly Analysis: Adapting Dataflow Analysis to Dynamic Parallel
//	Monitoring." ASPLOS 2010.
//
// Butterfly analysis runs instruction-grain monitors ("lifeguards") over
// multithreaded programs without tracking inter-thread dependences and
// without assuming sequential consistency: per-thread traces are split into
// uncertainty epochs by a heartbeat, events two or more epochs apart are
// strictly ordered, and adjacent-epoch events of other threads are treated
// as potentially concurrent. Classic forward dataflow analyses are
// re-derived over a three-epoch sliding window with provably zero false
// negatives.
//
// The implementation lives under internal/ (see README.md for the map):
// the two-pass engine in internal/core, the §5 reaching analyses and the
// lifeguards in internal/lifeguard/..., the trace/epoch substrate in
// internal/trace and internal/epoch, the simulated evaluation platform in
// internal/machine and internal/apps, and the experiment harness
// regenerating the paper's Table 1 and Figures 11–13 in internal/bench.
// Entry points: cmd/tracegen, cmd/butterfly-run, cmd/butterfly-bench, and
// the runnable examples under examples/.
package butterfly
