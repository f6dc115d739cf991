package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles checks result file B against A, the base: for every pairing
// of end-to-end metric and workload it prints both values and B's ratio to
// A, and PASS or FAIL by the metric's bound in spec. A rise in the share of
// failed epochs fails too. The error names how many pairings failed.
func compareFiles(spec *benchSpec, pathA, pathB string, w io.Writer) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\n",
		pathA, a.Host.Commit, a.Seed, pathB, b.Host.Commit, b.Seed)
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	fails := 0
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		fails++
		return "FAIL"
	}
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %10s %7s\n", "workload", "metric", "A", "B", "B/A", "bound")
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		if _, ok := b.Workloads[n]; !ok {
			fmt.Fprintf(w, "%-16s missing from B  %s\n", n, verdict(false))
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name].Value, rb.EndToEnd[m.Name].Value
			worse := worseBy(va, vb, m.Better)
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %10.4f %6.0f%%  %s\n",
				n, m.Name, va, vb, ratio(vb, va), m.Bound*100, verdict(worse <= m.Bound))
		}
		sa := ratio(float64(ra.Failed), float64(ra.Attempted))
		sb := ratio(float64(rb.Failed), float64(rb.Attempted))
		fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %10s %6s   %s\n",
			n, "failed_share", sa, sb, "", "0", verdict(sb <= sa && (rb.Correct || !ra.Correct)))
	}
	if fails > 0 {
		return fmt.Errorf("%d of B's values are worse than A's by more than their bound", fails)
	}
	return nil
}
