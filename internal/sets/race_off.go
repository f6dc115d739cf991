//go:build !race

package sets

// raceEnabled reports whether the race detector is compiled in. Alloc-count
// gates skip under -race (its instrumentation allocates), and reclaimed
// storage is poisoned instead of reused (IntervalSet.reclaim).
const raceEnabled = false
