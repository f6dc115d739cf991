package main

import (
	"math/rand"
	"runtime"
	"time"

	"butterfly/internal/sets"
)

// The sets kernel table times the in-place interval-set kernels the
// lifeguards call on three shapes taken from the workloads:
//
//	inline      4 intervals: a block summary of paper-apps or small-epochs,
//	            held in the IntervalSet value itself
//	sparse      256 intervals
//	fragmented  65536 intervals: the allocated set of churn-local
//
// Each kernel is applied with an operand of a block summary's size (the
// shape itself for inline, 64 intervals otherwise) chosen so that the call
// leaves the set as it was — a union with a subset, a subtraction of bytes
// from the gaps — and the loop needs no reset between calls.
var kernelShapes = []struct {
	name      string
	intervals int
}{
	{"inline", 4},
	{"sparse", 256},
	{"fragmented", 65536},
}

// kernelBudget is the time one kernel on one shape is run for.
const kernelBudget = 15 * time.Millisecond

// timeOp returns the mean ns per call of op over about kernelBudget.
func timeOp(op func()) float64 {
	op() // sizes scratch and faults pages in
	n, batch := 0, 1
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
		if el := time.Since(start); el >= kernelBudget {
			return float64(el) / float64(n)
		}
		if batch < 1<<16 {
			batch *= 2
		}
	}
}

var kernelSink bool

// setsKernels fills layers with the sets.* per-layer metrics.
func setsKernels(layers map[string]float64) {
	hp := slotHeap{slots: 65536, size: 32}
	rng := rand.New(rand.NewSource(1))
	for _, shape := range kernelShapes {
		step := hp.slots / shape.intervals
		full := sets.NewIntervalSet()
		for i := 0; i < shape.intervals; i++ {
			a := hp.addr(i * step)
			full.AddRange(a, a+hp.size)
		}
		nOperand := 64
		if shape.intervals < nOperand {
			nOperand = shape.intervals
		}
		inside, gaps := sets.NewIntervalSet(), sets.NewIntervalSet()
		probes := make([]uint64, 1024)
		for i := 0; i < nOperand; i++ {
			a := hp.addr((i * shape.intervals / nOperand) * step)
			inside.AddRange(a, a+hp.size)
			gaps.AddRange(a+hp.size, a+hp.size+8)
		}
		for i := range probes {
			probes[i] = hp.addr(rng.Intn(shape.intervals) * step)
		}
		work, dst := full.Clone(), sets.NewIntervalSet()
		layers["sets.union_ns."+shape.name] = timeOp(func() { work.UnionInPlace(inside) })
		layers["sets.subtract_ns."+shape.name] = timeOp(func() { work.SubtractInPlace(gaps) })
		layers["sets.clone_ns."+shape.name] = timeOp(func() { dst.CopyFrom(full) })
		i := 0
		layers["sets.contains_ns."+shape.name] = timeOp(func() {
			kernelSink = work.ContainsRange(probes[i&1023], probes[i&1023]+8)
			i++
		})
		if !work.Equal(full) {
			panic("sets kernel changed its operand")
		}
		if shape.name == "fragmented" {
			K := runtime.GOMAXPROCS(0)
			layers["sets.split_merge_ns.fragmented"] = timeOp(func() { full.Split(K).MergeInto(dst) })
		}
	}

	// The map-backed Set of lockset and taintcheck: 4096 tracked locations,
	// cloned per block, and met with a held-lock set of a few elements.
	big, small := sets.NewSet(), sets.NewSet()
	for i := uint64(0); i < 4096; i++ {
		big.Add(heapBase + i*8)
	}
	for i := uint64(0); i < 4; i++ {
		small.Add(heapBase + i*8*1024)
	}
	layers["sets.map_clone_ns"] = timeOp(func() { kernelSink = big.Clone().Len() > 0 })
	layers["sets.map_intersect_ns"] = timeOp(func() { kernelSink = big.Intersect(small).Len() > 0 })
}
