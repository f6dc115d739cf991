package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted, interpolating
// linearly between the two nearest ranks; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// worseBy returns by what share of base the value cur is worse than base,
// given the metric's direction; negative when cur is better.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// slice is one stretch of a measured window — half a second of a serve
// phase, one round of passes of a local workload — with what the system
// under test did in it.
type slice struct {
	wall   float64 // seconds
	events int
	epochs int
	cpu    float64   // CPU seconds the system under test used
	rssMB  float64   // its resident set at the slice's end
	lat    []float64 // ms, of the epochs completed in the slice
}

// steady holds a window's end-to-end figures. Each is the median over the
// window's slices: on the defining host identical work runs up to a fifth
// slower for seconds at a time, and a mean over the window carries every
// such episode into the result while the median of its slices does not.
type steady struct {
	rate         float64 // events/s
	cpuPerMevent float64
	p50, p90     float64 // ms
	rssMB        float64
}

func summarizeSlices(slices []slice) steady {
	var rate, cpu, p50, p90, rss []float64
	for _, s := range slices {
		if s.events == 0 || s.wall == 0 {
			continue
		}
		rate = append(rate, float64(s.events)/s.wall)
		cpu = append(cpu, s.cpu/(float64(s.events)/1e6))
		rss = append(rss, s.rssMB)
		if len(s.lat) > 0 {
			l := sortedCopy(s.lat)
			p50 = append(p50, percentile(l, 0.50))
			p90 = append(p90, percentile(l, 0.90))
		}
	}
	return steady{median(rate), median(cpu), median(p50), median(p90), median(rss)}
}

// e2e names the figures as BENCHMARK.json does; setup_s is added by the run.
func (st steady) e2e() map[string]float64 {
	return map[string]float64{
		"events_per_s":            st.rate,
		"ack_p50_ms":              st.p50,
		"ack_p90_ms":              st.p90,
		"server_cpu_s_per_mevent": st.cpuPerMevent,
		"server_rss_mb":           st.rssMB,
	}
}

// combine merges the figures of windows of equal length run one after the
// other: rates and latencies average, CPU per event is weighted by events.
func combine(parts []steady) steady {
	var out steady
	n := float64(len(parts))
	for _, p := range parts {
		out.rate += p.rate / n
		out.p50 += p.p50 / n
		out.p90 += p.p90 / n
		out.rssMB += p.rssMB / n
		out.cpuPerMevent += p.cpuPerMevent * p.rate
	}
	out.cpuPerMevent = ratio(out.cpuPerMevent, out.rate*n)
	return out
}
