package lifeguard

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"butterfly/internal/core"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// detailCase pairs one fmt format a lifeguard used to build a Detail with
// the builder chain that replaced it.
type detailCase struct {
	want  string
	build func(d *Details)
}

// detailCases lists every replaced format, filled with the fuzz inputs:
// addrcheck's five, memcheck's two, lockset's one and taintcheck's miss.
func detailCases(k trace.Kind, lo, hi uint64, threads []int) []detailCase {
	return []detailCase{
		{fmt.Sprintf("%v of [%#x,%#x) not within allocated memory", k, lo, hi), func(d *Details) {
			d.Str(k.String()).Str(" of ").Range(lo, hi).Str(" not within allocated memory")
		}},
		{fmt.Sprintf("allocation of [%#x,%#x) overlaps allocated memory", lo, hi), func(d *Details) {
			d.Str("allocation of ").Range(lo, hi).Str(" overlaps allocated memory")
		}},
		{fmt.Sprintf("free of [%#x,%#x) not within allocated memory", lo, hi), func(d *Details) {
			d.Str("free of ").Range(lo, hi).Str(" not within allocated memory")
		}},
		{fmt.Sprintf("%v of [%#x,%#x) concurrent with an allocation-state change", k, lo, hi), func(d *Details) {
			d.Str(k.String()).Str(" of ").Range(lo, hi).Str(" concurrent with an allocation-state change")
		}},
		{fmt.Sprintf("%v of [%#x,%#x) concurrent with a conflicting operation", k, lo, hi), func(d *Details) {
			d.Str(k.String()).Str(" of ").Range(lo, hi).Str(" concurrent with a conflicting operation")
		}},
		{fmt.Sprintf("read of [%#x,%#x) may see uninitialized memory", lo, hi), func(d *Details) {
			d.Str("read of ").Range(lo, hi).Str(" may see uninitialized memory")
		}},
		{fmt.Sprintf("read of [%#x,%#x) concurrent with a definedness change", lo, hi), func(d *Details) {
			d.Str("read of ").Range(lo, hi).Str(" concurrent with a definedness change")
		}},
		{fmt.Sprintf("no common lock protects [%#x,%#x) (threads: %v)", lo, hi, threads), func(d *Details) {
			d.Str("no common lock protects ").Range(lo, hi).Str(" (threads: ").Ints(threads).Str(")")
		}},
		{fmt.Sprintf("value at %#x may be tainted at a critical use", lo), func(d *Details) {
			d.Str("value at ").Hex(lo).Str(" may be tainted at a critical use")
		}},
	}
}

// FuzzReportDetail is the differential check of the detail builder: for
// every format it replaced, the builder's text equals fmt.Sprintf's, for any
// Kind (out-of-range ones included), any bounds and thread lists of length
// 0–5. All cases go through one builder, as a reporting block's reports do,
// so the test also pins the Finish contract: each report gets its own
// substring of one string, the substrings abut without overlapping, and
// reusing the builder afterwards leaves them intact.
func FuzzReportDetail(f *testing.F) {
	f.Add(uint8(trace.Read), uint64(0), uint64(0), uint8(0), 0, 0, 0, 0, 0)
	f.Add(uint8(trace.Write), uint64(0x1000), uint64(0x1008), uint8(2), 1, 3, 0, 0, 0)
	f.Add(uint8(255), uint64(math.MaxUint64), uint64(math.MaxUint64), uint8(5), -1, 0, 7, 63, 64)
	f.Fuzz(func(t *testing.T, k uint8, lo, hi uint64, n uint8, t0, t1, t2, t3, t4 int) {
		threads := []int{t0, t1, t2, t3, t4}[:n%6]
		cases := detailCases(trace.Kind(k), lo, hi, threads)
		d := new(Details)
		for i, c := range cases {
			c.build(d)
			d.Report(core.Report{Ref: trace.Ref{Index: i}})
		}
		reports := d.Finish()
		if len(reports) != len(cases) {
			t.Fatalf("%d reports for %d cases", len(reports), len(cases))
		}

		// Scribble over the builder, as the summary's next pass does:
		// finished reports must not alias its buffers.
		for range cases {
			d.Str("scribble scribble scribble scribble")
			d.Report(core.Report{Code: "junk"})
		}
		d.Finish()

		for i, c := range cases {
			if got := reports[i].Detail; got != c.want {
				t.Fatalf("case %d: builder %q, fmt %q", i, got, c.want)
			}
			if reports[i].Ref.Index != i || reports[i].Code != "" {
				t.Fatalf("case %d: report %+v is not the one added", i, reports[i])
			}
			if i == 0 {
				continue
			}
			prev, cur := reports[i-1].Detail, reports[i].Detail
			prevEnd := uintptr(unsafe.Pointer(unsafe.StringData(prev))) + uintptr(len(prev))
			if start := uintptr(unsafe.Pointer(unsafe.StringData(cur))); start != prevEnd {
				t.Fatalf("details %d and %d do not abut in one string: %#x ends, %#x starts", i-1, i, prevEnd, start)
			}
		}
	})
}

func TestDetailsFinishWithoutReports(t *testing.T) {
	d := new(Details)
	if reports := d.Finish(); reports != nil {
		t.Fatalf("a pass without reports returned %v, want nil", reports)
	}
}

func TestDetailsFinishAllocatesTwicePerBlock(t *testing.T) {
	if sets.RaceEnabled {
		t.Skip("race detector instruments allocations; counts are not meaningful")
	}
	const n = 64
	d := new(Details) // one summary's builder, reused pass after pass
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < n; i++ {
			d.Str(trace.Read.String()).Str(" of ").Range(i<<12, i<<12+8).Str(" not within allocated memory")
			d.Report(core.Report{Ref: trace.Ref{Index: int(i)}})
		}
		if len(d.Finish()) != n {
			t.Fatal("reports lost")
		}
	})
	if allocs > 2 {
		t.Fatalf("a %d-report block costs %v allocations, want 2", n, allocs)
	}
}
