package bench

import "testing"

// TestSmokeSweep runs a reduced sweep end to end. The full-scale sweep is
// exercised by cmd/butterfly-bench and the testing.B benchmarks.
func TestSmokeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := DefaultOptions()
	o.Scale = 1.0 / 128
	o.Threads = []int{2, 4}
	e, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderFig11(e.Fig11()))
	t.Log("\n" + RenderFig12(e.Fig12()))
	t.Log("\n" + RenderFig13(e.Fig13()))
	for _, r := range e.Fig13() {
		if r.FalseNegatives != 0 {
			t.Errorf("%s/%d threads: false negatives present", r.App, r.Threads)
		}
	}
	// Figure 13 pinned row by row: the false positives each configuration
	// reports are a deterministic function of the generated traces, so any
	// change to a lifeguard's precision — or to what a run computes, however
	// its storage is managed — shows up here as a changed count.
	type cell struct {
		app     string
		threads int
		h       int
	}
	wantFPs := map[cell]int{
		{"barnes", 2, 64}:        0,
		{"barnes", 4, 64}:        0,
		{"blackscholes", 2, 64}:  16,
		{"blackscholes", 4, 64}:  42,
		{"fft", 2, 64}:           0,
		{"fft", 4, 64}:           0,
		{"fmm", 2, 64}:           0,
		{"fmm", 4, 64}:           0,
		{"lu", 2, 64}:            0,
		{"lu", 4, 64}:            0,
		{"ocean", 2, 64}:         0,
		{"ocean", 4, 64}:         0,
		{"barnes", 2, 512}:       26,
		{"barnes", 4, 512}:       43,
		{"blackscholes", 2, 512}: 16,
		{"blackscholes", 4, 512}: 43,
		{"fft", 2, 512}:          0,
		{"fft", 4, 512}:          0,
		{"fmm", 2, 512}:          5,
		{"fmm", 4, 512}:          22,
		{"lu", 2, 512}:           0,
		{"lu", 4, 512}:           0,
		{"ocean", 2, 512}:        42,
		{"ocean", 4, 512}:        455,
	}
	fig13 := e.Fig13()
	if len(fig13) != len(wantFPs) {
		t.Errorf("expected %d Fig13 rows, got %d", len(wantFPs), len(fig13))
	}
	for _, r := range fig13 {
		want, ok := wantFPs[cell{r.App, r.Threads, r.H}]
		if !ok {
			t.Errorf("unexpected Fig13 row %s/%d threads/h=%d", r.App, r.Threads, r.H)
		} else if r.FalsePositives != want {
			t.Errorf("%s/%d threads/h=%d: %d false positives, want %d", r.App, r.Threads, r.H, r.FalsePositives, want)
		}
	}
	if len(e.Fig11()) != 12 {
		t.Errorf("expected 12 Fig11 rows, got %d", len(e.Fig11()))
	}
	if Table1(o) == "" {
		t.Error("Table1 empty")
	}
}
