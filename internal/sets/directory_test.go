package sets

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// directorySet builds a sorted, coalesced set from a fuzz input. The first
// byte holds flags: bit 0 starts the set at address 0, bit 1 ends it at the
// top of the address space (Hi = MaxUint64), bit 2 makes the middle
// interval huge (2⁶⁰ bytes). Every three bytes after it (gap, length,
// scale) place one more interval: the scale byte's low six bits shift the
// gap and its top two bits the length, so one input mixes dense runs with
// far-flung intervals, the skewed shapes where many intervals share one
// bucket.
func directorySet(data []byte) *IntervalSet {
	s := NewIntervalSet()
	if len(data) == 0 {
		return s
	}
	flags := data[0]
	data = data[1:]
	var at uint64
	if flags&1 == 0 {
		at = 1 << 16
	}
	n := len(data) / 3
	for i := 0; i < n; i++ {
		gap, length, scale := data[3*i], data[3*i+1], data[3*i+2]
		g := uint64(gap) << ((scale & 63) % 56)
		l := (uint64(length) + 1) << ((scale >> 6) * 8)
		if i == n/2 && flags&4 != 0 {
			l = 1 << 60
		}
		if i == 0 && flags&1 != 0 {
			g = 0
		}
		if at > math.MaxUint64-g || at+g > math.MaxUint64-l {
			break
		}
		s.AddRange(at+g, at+g+l)
		at += g + l
	}
	if flags&2 != 0 {
		s.AddRange(max(at, math.MaxUint64-1<<12), math.MaxUint64)
	}
	return s
}

// checkDirectory checks d, built over s, against s's own binary search: its
// shape (at most two buckets per interval, entries in order, the last one
// len), and searches, ContainsRange and OverlapsRange at every interval end
// and bucket start with their neighbours, at both ends of the address
// space, and at the extra probes.
func checkDirectory(t *testing.T, s *IntervalSet, d *Directory, extra []uint64) {
	t.Helper()
	v := s.ivs
	if len(d.start) == 0 {
		t.Fatalf("no directory over %d intervals", len(v))
	}
	nb := len(d.start) - 1
	if nb > 2*len(v) || d.start[nb] != uint32(len(v)) || d.lo != v[0].Lo {
		t.Fatalf("directory of %d buckets, last entry %d, lo %#x over %d intervals from %#x",
			nb, d.start[nb], d.lo, len(v), v[0].Lo)
	}
	for b := 1; b <= nb; b++ {
		if d.start[b] < d.start[b-1] {
			t.Fatalf("entry %d = %d falls below entry %d = %d", b, d.start[b], b-1, d.start[b-1])
		}
	}
	pts := append([]uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}, extra...)
	for _, iv := range v {
		pts = append(pts, iv.Lo-1, iv.Lo, iv.Lo+1, iv.Hi-1, iv.Hi, iv.Hi+1)
	}
	for b := 0; b <= nb; b++ {
		a := d.lo + uint64(b)<<d.shift
		pts = append(pts, a-1, a, a+1)
	}
	for _, x := range pts {
		if got, want := d.search(v, x), searchHi(v, x, true); got != want {
			t.Fatalf("search(%#x) through the directory = %d, searchHi %d (set %v)", x, got, want, s)
		}
	}
	// Ranges between probe points, a bounded number of them.
	rng := rand.New(rand.NewSource(int64(len(pts))))
	for i := 0; i < 4*len(pts) && i < 4096; i++ {
		lo, hi := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
		if rng.Intn(8) == 0 {
			hi = lo + uint64(rng.Intn(4))
			if hi < lo {
				hi = math.MaxUint64
			}
		}
		if got, want := d.ContainsRange(s, lo, hi), s.ContainsRange(lo, hi); got != want {
			t.Fatalf("ContainsRange(%#x,%#x) through the directory = %v, set %v", lo, hi, got, want)
		}
		if got, want := d.OverlapsRange(s, lo, hi), s.OverlapsRange(lo, hi); got != want {
			t.Fatalf("OverlapsRange(%#x,%#x) through the directory = %v, set %v", lo, hi, got, want)
		}
	}
}

// FuzzIntervalDirectory checks a directory over arbitrary sorted, coalesced
// sets (directorySet) against the binary search it replaces, at every size
// down to one interval; Build itself leaves sets below dirMinIntervals
// without one. Directories are rebuilt in storage the previous input left,
// and a copy must answer as the original. The seeds below, one per shape,
// run in every `go test`.
func FuzzIntervalDirectory(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []struct {
		flags byte
		n     int
		scale func() byte
	}{
		{0, 1, func() byte { return 0 }},
		{7, 3, func() byte { return 60 }},
		{0, 100, func() byte { return byte(rng.Intn(4)) }},                  // dense
		{2, 90, func() byte { return byte(rng.Intn(64)) }},                  // skewed
		{5, 80, func() byte { return byte(rng.Intn(256)) }},                 // one huge interval
		{3, 120, func() byte { return byte(6 + rng.Intn(2)) }},              // at both ends
		{1, 70, func() byte { return byte(rng.Intn(2)*40 + 1) }},            // two scales of gap
		{4, 200, func() byte { return byte(0xc0 | rng.Intn(4)<<2) }},        // long intervals
		{6, 65, func() byte { return 55 }},                                  // the widest gaps
		{1, 300, func() byte { return byte(rng.Intn(2) | rng.Intn(2)<<6) }}, // long and short
	} {
		data := []byte{seed.flags}
		for i := 0; i < seed.n; i++ {
			data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)), seed.scale())
		}
		f.Add(data)
	}
	var d, c Directory // storage carried from input to input
	f.Fuzz(func(t *testing.T, data []byte) {
		s := directorySet(data)
		d.Build(s)
		if (len(d.start) > 0) != (s.NumIntervals() >= dirMinIntervals) {
			t.Fatalf("Build over %d intervals: %d entries", s.NumIntervals(), len(d.start))
		}
		if s.Empty() {
			return
		}
		d.indexRuns(s.ivs, 1)
		extra := make([]uint64, 0, len(data)/8)
		for i := 0; i+8 <= len(data); i += 8 {
			var x uint64
			for _, b := range data[i : i+8] {
				x = x<<8 | uint64(b)
			}
			extra = append(extra, x)
		}
		checkDirectory(t, s, &d, extra)
		c.CopyFrom(&d)
		checkDirectory(t, s, &c, nil)
	})
}

// fragmentedSet is a heap of n 48-byte slots on a 64-byte pitch, each kept
// with probability ½: the shape of a fragmented SOS, about n/2 intervals.
func fragmentedSet(rng *rand.Rand, n int) *IntervalSet {
	s := NewIntervalSet()
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.AddRange(0x10000+uint64(i)*64, 0x10000+uint64(i)*64+48)
		}
	}
	return s
}

// TestDirectoryRebuildAllocFree pins the steady state: rebuilding and
// copying a directory in storage that has indexed a set of the same size
// allocates nothing, and a set that shrinks below dirMinIntervals leaves
// the directory empty but keeps its storage.
func TestDirectoryRebuildAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big, small := fragmentedSet(rng, 8192), fragmentedSet(rng, 64)
	var d, c Directory
	d.Build(big)
	c.CopyFrom(&d)
	if allocs := testing.AllocsPerRun(20, func() {
		d.Build(small)
		d.Build(big)
		c.CopyFrom(&d)
	}); allocs != 0 {
		t.Fatalf("rebuilding a directory in place: %v allocs, want 0", allocs)
	}
	checkDirectory(t, big, &c, nil)
	d.Build(small)
	if len(d.start) != 0 || cap(d.start) == 0 {
		t.Fatalf("over %d intervals: %d entries, capacity %d", small.NumIntervals(), len(d.start), cap(d.start))
	}
}

// sink keeps benchmark results live.
var sink int

// BenchmarkSOSProbe measures what a first-pass check pays to probe an SOS
// generation, at two sizes of a fragmented heap (4 Ki and 64 Ki intervals):
// a binary search over the whole set (search) against the directory
// (directory), with independent probes and with probes that each depend on
// the one before (the chain a block's consecutive checks can form). The
// other cases price the directory at the SOS update: building it, copying
// it (an epoch that changes nothing), and, for comparison, copying the
// intervals and writing a generation with AssignDelta.
func BenchmarkSOSProbe(b *testing.B) {
	for _, n := range []int{4 << 10, 64 << 10} {
		rng := rand.New(rand.NewSource(1))
		s := fragmentedSet(rng, 2*n)
		var d Directory
		d.Build(s)
		const nprobe = 1 << 12
		probes := make([]uint64, nprobe)
		for i := range probes {
			probes[i] = 0x10000 + uint64(rng.Intn(2*n*64))
		}
		prefix := fmt.Sprintf("n=%dKi", n>>10) // about n intervals
		for _, dep := range []bool{false, true} {
			for _, dir := range []bool{false, true} {
				name := prefix + "/independent"
				if dep {
					name = prefix + "/dependent"
				}
				if dir {
					name += "/directory"
				} else {
					name += "/search"
				}
				b.Run(name, func(b *testing.B) {
					v, r := s.ivs, 0
					for i := 0; b.Loop(); i++ {
						j := i
						if dep {
							j += r
						}
						x := probes[j&(nprobe-1)]
						if dir {
							r = d.search(v, x)
						} else {
							r = searchHi(v, x, true)
						}
					}
					sink = r
				})
			}
		}
		b.Run(prefix+"/build", func(b *testing.B) {
			var bd Directory
			for b.Loop() {
				bd.Build(s)
			}
		})
		b.Run(prefix+"/copy-directory", func(b *testing.B) {
			var cd Directory
			for b.Loop() {
				cd.CopyFrom(&d)
			}
		})
		b.Run(prefix+"/copy-intervals", func(b *testing.B) {
			var cs IntervalSet
			for b.Loop() {
				cs.CopyFrom(s)
			}
		})
		// An epoch's delta: a few dozen frees and allocations.
		kill, gen := NewIntervalSet(), NewIntervalSet()
		for i := 0; i < 32; i++ {
			slot := 0x10000 + uint64(rng.Intn(2*n))*64
			kill.AddRange(slot, slot+48)
			slot = 0x10000 + uint64(rng.Intn(2*n))*64
			gen.AddRange(slot, slot+48)
		}
		gen.SubtractInPlace(kill)
		b.Run(prefix+"/assign-delta", func(b *testing.B) {
			var out IntervalSet
			for b.Loop() {
				out.AssignDelta(s, kill, gen)
			}
		})
	}
}
