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
	if len(e.Fig11()) != 12 {
		t.Errorf("expected 12 Fig11 rows, got %d", len(e.Fig11()))
	}
	if Table1(o) == "" {
		t.Error("Table1 empty")
	}
}
